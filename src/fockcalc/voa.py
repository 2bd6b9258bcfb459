"""The rank-1 free boson vertex operator algebra on the Fock space.

Vertex operators are built by the standard creation/annihilation-split
recursion: for a state h(-k)u the operator is the normal-ordered product
of the (k-1)-th divided derivative of the field sum_n h(n) x^{-n-1}
against the operator of u, with Y(1, x) the identity.  The conformal
vector is half the square of the first creation mode; its modes
reproduce the quadratic operator family, which the axiom suite checks.

Everything here is evaluated mode-by-mode: applied to any vector, every
coefficient of every identity is a finite exact sum, so the delta-kernel
identities (the classical Jacobi identity and its dilation-variable
analogue built on the change-of-variables operator Y[u,y]) are verified
cell-by-cell on explicit exponent boxes with no truncation error.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, gcd, lcm
from types import MappingProxyType

from .exact import PowerSeries
from .fock import (FockVector, _den, _iaxpy, _insert_part, _nonzero,
                   _off_scale, _on_scale, _remove_part, weight_basis)
from .quadratic import L_apply
from .report import FAIL, PASS, VerificationReport
from .series import MultiSeries, _exact_div, comb_int, window_var


class VOAConstants:
    """Distinguished data of the free boson structure: the rank and the
    conformal vector."""

    rank = Fraction(1)

    @staticmethod
    def omega() -> FockVector:
        return FockVector({(1, 1): Fraction(1, 2)})


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

_ZERO_MODE = FockVector(MappingProxyType({}))


@functools.lru_cache(maxsize=None)
def _mode_mon(state: tuple, n: int, target: tuple) -> FockVector:
    """The n-th mode of the monomial state applied to a target monomial,
    with int coefficients.

    For state = (k, rest...) the creation part acts after the recursive
    operator, the annihilation part before it; both sums are finite by
    weight bookkeeping (u_j w = 0 once j exceeds wt u + wt w - 1).  Each
    step inserts or removes one part, and its weight, a binomial
    C(-m-1, k-1) times the h-action m * multiplicity, is an integer.  The
    term map is read-only, since every caller shares the cached vector;
    every zero result is ``_ZERO_MODE``.  A one-part state (k,) is the
    term C(-m-1, k-1) h(m), m = n - k + 1; a two-part state is
    ``_two_part_mode``, so the recursion bottoms out at two parts.
    """
    if not state:
        return (FockVector(MappingProxyType({target: 1})) if n == -1
                else _ZERO_MODE)
    k, rest = state[0], state[1:]
    if not rest:
        m = n - k + 1
        c = comb_int(-m - 1, k - 1) * (1 if m < 0 else m * target.count(m))
        if not c:
            return _ZERO_MODE
        out = _insert_part(target, -m) if m < 0 else _remove_part(target, m)
        return FockVector(MappingProxyType({out: c}))
    if len(rest) == 1:
        terms = _nonzero(_two_part_mode(k, rest[0], n, target))
        return FockVector(MappingProxyType(terms)) if terms else _ZERO_MODE
    terms = {}
    get = terms.get
    # creation part: sum_{m<=-1} C(-m-1, k-1) h(m) (rest_{n-m-k} target)
    m_lo = n - k - (sum(rest) + sum(target) - 1)
    for m in range(m_lo, 0):
        inner = _mode_mon(rest, n - m - k, target).terms
        if inner:
            coef = comb_int(-m - 1, k - 1)
            if coef:
                for mon, c in inner.items():
                    mon = _insert_part(mon, -m)
                    terms[mon] = get(mon, 0) + coef * c
    # annihilation part: sum_{m>=1} C(-m-1, k-1) rest_{n-m-k} (h(m) target),
    # where h(m) removes one part m with weight m times its multiplicity
    for m in sorted(set(target)):
        coef = comb_int(-m - 1, k - 1) * m * target.count(m)
        _iaxpy(terms, _mode_mon(rest, n - m - k,
                                _remove_part(target, m)).terms, coef)
    terms = _nonzero(terms)
    return FockVector(MappingProxyType(terms)) if terms else _ZERO_MODE


def _two_part_mode(k1: int, k2: int, n: int, target: tuple) -> dict:
    """The int terms of mode n of h(-k1)h(-k2)1, the normal-ordered product
    of the divided derivatives of orders k1 - 1 and k2 - 1 of h(x), on a
    target monomial: the sum of C(-i-1, k1-1) C(-j-1, k2-1) :h(i)h(j):
    over i + j = n + 1 - k1 - k2, i, j != 0, annihilation modes first."""
    total = n + 1 - k1 - k2
    terms = {}
    get = terms.get
    # two creation modes: insert the parts -i and -j
    for i in range(total + 1, 0):
        c = comb_int(-i - 1, k1 - 1) * comb_int(i - total - 1, k2 - 1)
        if c:
            mon = _insert_part(_insert_part(target, -i), i - total)
            terms[mon] = get(mon, 0) + c
    for p in set(target):
        cp = p * target.count(p)
        reduced = _remove_part(target, p)
        q = total - p
        if q < 0:
            # annihilation mode p and creation mode q, in either slot
            c = cp * (comb_int(-q - 1, k1 - 1) * comb_int(-p - 1, k2 - 1)
                      + comb_int(-p - 1, k1 - 1) * comb_int(-q - 1, k2 - 1))
            mon = _insert_part(reduced, -q)
        elif q and (cq := reduced.count(q)):
            # two annihilation modes: remove p, then q
            c = (cp * q * cq * comb_int(-p - 1, k1 - 1)
                 * comb_int(-q - 1, k2 - 1))
            mon = _remove_part(reduced, q)
        else:
            continue
        if c:
            terms[mon] = get(mon, 0) + c
    return terms


_INT = frozenset((int,))


def mode_apply(state: FockVector, n: int, w: FockVector) -> FockVector:
    """Bilinear extension of the monomial mode action.

    The sum is taken in ints from ``_mode_mon`` on the scale D =
    den(state) den(w), den the lcm of a vector's coefficient
    denominators, and divided by D once.  A vector whose coefficients
    are all ints has den 1 without taking the lcm.  On the scale D = 1
    the coefficients are summed as they are, so int-valued state and w
    give an int-valued result.
    """
    ds = 1 if _INT.issuperset(map(type, state.terms.values())) else _den(state)
    dw = 1 if _INT.issuperset(map(type, w.terms.values())) else _den(w)
    if ds * dw == 1:
        # whole coefficients, summed as they are
        si, wi = state.terms.items(), w.terms.items()
    else:
        # den(v) is the lcm of v's denominators, so each scaled
        # coefficient c * den(v) is an exact int
        si = [(mon, c.numerator * (ds // c.denominator))
              for mon, c in state.terms.items()]
        wi = [(mon, c.numerator * (dw // c.denominator))
              for mon, c in w.terms.items()]
    acc = {}
    for smon, sc in si:
        for wmon, wc in wi:
            table = _mode_mon(smon, n, wmon).terms
            if table:
                _iaxpy(acc, table, sc * wc)
    if ds * dw == 1:
        return FockVector(_nonzero(acc))
    return _off_scale(acc, ds * dw)


def _weight_field(v: FockVector, den: int) -> list:
    """The weight components (a, den * comp) of v, as int-valued vectors."""
    return [(a, _on_scale(comp, den)) for a, comp in v.weight_components()]


def _x_coef(field: list, e: int, t: FockVector) -> FockVector:
    """Coefficient of x^e in X(s, x)t for an int-valued t, the state s
    given by its ``_weight_field``: the component of weight a contributes
    its mode a - e - 1.  An int-valued vector."""
    if len(field) == 1:
        return mode_apply(field[0][1], field[0][0] - e - 1, t)
    acc = {}
    for a, s in field:
        _iaxpy(acc, mode_apply(s, a - e - 1, t).terms, 1)
    return FockVector(_nonzero(acc))


def X_apply(v: FockVector, w: FockVector, n: int) -> FockVector:
    """Coefficient of x^{-n} in X(v,x)w = x^{L(0)-shift} Y(v,x)w.

    Handled per weight component: a component of weight a contributes
    its mode of index a + n - 1.  Summed in ints on the scale den(v)
    den(w), as ``mode_apply`` sums.
    """
    dv, dw = _den(v), _den(w)
    x = _x_coef(_weight_field(v, dv), -n, _on_scale(w, dw))
    return x if dv * dw == 1 else _off_scale(x.terms, dv * dw)


# ---------------------------------------------------------------------------
# The change-of-variables operator
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _zhu_scalar_series(a: int, j: int, order: int) -> tuple:
    """e^{ay} (e^y - 1)^{-j-1} through y^order, as ((exp, Fraction), ...),
    for j >= -order-1: y^{-j-1} times e^{ay} and the (-j-1)-th power of
    the unit series (e^y - 1)/y, so exponents start at -j-1.
    """
    work = order + j + 1
    unit = PowerSeries({i: Fraction(1, factorial(i + 1))
                        for i in range(work + 1)}, work)
    exp = PowerSeries({i: Fraction(a ** i, factorial(i))
                       for i in range(work + 1)}, work)
    ser = unit.pow_int(-j - 1) * exp
    return tuple(sorted((t - j - 1, c) for t, c in ser.coeffs.items()))


def zhu_bracket_apply(u: FockVector, v: FockVector, order: int) -> MultiSeries:
    """Y[u, y]v: the vertex operator at e^y - 1 of the e^{yL(0)}-dressed
    state, as an exact Laurent series in y through y^order.

    Finitely many negative powers occur (bounded by the top mode of u on
    v); the series is certified for all exponents <= order.  The modes
    u_j v of each weight component are int-valued on the scale den(u)
    den(v); they are summed in ints against the scalar series on the
    scale D den(u) den(v), D the lcm of the series' denominators, and
    divided by it once.
    """
    varspecs = (window_var("y", -(order + 1), order),)
    du, dv = _den(u), _den(v)
    vi = _on_scale(v, dv)
    pieces = []
    for a, comp in _weight_field(u, du):
        for j in range(-(order + 1), a + v.max_weight()):
            if g := mode_apply(comp, j, vi).terms:
                pieces.append((g, _zhu_scalar_series(a, j, order)))
    ds = lcm(*(c.denominator for _, ser in pieces for _, c in ser))
    acc: dict = {}
    for g, ser in pieces:
        for e, c in ser:
            _iaxpy(acc.setdefault((e,), {}), g,
                   c.numerator * (ds // c.denominator))
    terms = {cell: vec for cell, ints in acc.items()
             if (vec := _off_scale(ints, ds * du * dv))}
    return MultiSeries(varspecs, terms, {"y": (None, order)})


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------

def axiom_suite(max_weight: int, mode_window: int) -> VerificationReport:
    """Check the defining axioms exactly on all basis vectors.

    Covered: lower truncation, the vacuum operator, the creation
    property, the bracket relations of the conformal modes at rank 1,
    the grading eigenvalue, the translation-derivative property, and
    agreement of the conformal modes with the quadratic family.

    Both sides of every cell are int term maps on a fixed scale: 1 for
    the vacuum, creation and truncation cells, 2 for the grading, omega-
    mode and derivative cells, and 4 for the Virasoro cells.  The modes
    come from the int-valued 2 omega, so ``lw(n, w)`` is 2 L(n) w; the
    central term goes onto the scale 4 by an exact division.
    """
    rep = VerificationReport(
        identity="voa-axioms",
        parameters={"max_weight": max_weight, "mode_window": mode_window},
    )
    mons = [m for w in range(max_weight + 1) for m in weight_basis(w)]
    vecs = {m: FockVector({m: 1}) for m in mons}
    lab = {m: str(list(m)) for m in mons}
    one = FockVector({(): 1})
    two_omega = FockVector({(1, 1): 1})
    window = range(-mode_window, mode_window + 1)
    add = VerificationReport.add_int_cells   # one block of cells per call

    # vacuum operator: 1_n w = delta_{n,-1} w
    add(1, "vacuum-op n={} w={}".format,
        ((rep, (n, lab[m]), mode_apply(one, n, vecs[m]).terms,
          {m: 1} if n == -1 else {}) for m in mons for n in window))

    # creation: Y(v,x)1 has no negative powers and constant term v
    for m in mons:
        add(1, "creation v={} n={}".format,
            ((rep, (lab[m], n), mode_apply(vecs[m], n, one).terms, {})
             for n in range(0, mode_window + 1)))
        add(1, "creation-constant v={}".format,
            [(rep, (lab[m],), mode_apply(vecs[m], -1, one).terms, {m: 1})],
            listed=True)

    # lower truncation: u_n v = 0 for n beyond the weight bound
    add(1, "truncation u={} v={} n={}".format,
        ((rep, (lab[mu], lab[mv], n), _mode_mon(mu, n, mv).terms, {})
         for mu in mons for mv in mons
         for n in range(sum(mu) + sum(mv), mode_window + 2 * max_weight + 1)))

    # conformal modes: grading, brackets with rank term, derivative property
    def lw(n, w):
        return mode_apply(two_omega, n + 1, w).terms

    # the Virasoro cells ask for each L(n) of a basis vector many times
    lw_basis = functools.cache(lambda n, m: lw(n, vecs[m]))

    add(2, "grading w={}".format,
        ((rep, (lab[m],), lw_basis(0, m), {m: 2 * sum(m)}) for m in mons),
        listed=True)

    def virasoro():
        # the left side at (n, m) is minus the one at (m, n), held until then
        mirror = {}
        for mm in window:
            # 4 rank (m^3 - m) / 12; a rank off the scale raises
            central = _exact_div(
                4 * (mm ** 3 - mm) * VOAConstants.rank.numerator,
                12 * VOAConstants.rank.denominator)
            for nn in window:
                for m in mons:
                    if nn < mm:
                        lhs = {o: -x for o, x
                               in mirror.pop((nn, mm, m)).items()}
                    else:
                        lhs = {}
                        _iaxpy(lhs, lw(mm, FockVector(lw_basis(nn, m))), 1)
                        _iaxpy(lhs, lw(nn, FockVector(lw_basis(mm, m))), -1)
                        if nn > mm:
                            mirror[(mm, nn, m)] = lhs
                    rhs = {}
                    _iaxpy(rhs, lw_basis(mm + nn, m), 2 * (mm - nn))
                    if mm + nn == 0:
                        rhs[m] = rhs.get(m, 0) + central
                    yield rep, (mm, nn, lab[m]), lhs, rhs
    add(4, "virasoro m={} n={} w={}".format, virasoro())

    # omega modes agree with the quadratic family
    add(2, "omega-mode n={} w={}".format,
        ((rep, (n, lab[m]), lw_basis(n, m),
          _on_scale(L_apply(n, vecs[m]), 2).terms)
         for n in window for m in mons))

    # translation-derivative: (L(-1)v)_n = -n v_{n-1}
    def derivative():
        for m in mons:
            lv = FockVector(lw_basis(-1, m))
            for n in window:
                for mw in mons:
                    want = {}
                    _iaxpy(want, _mode_mon(m, n - 1, mw).terms, -2 * n)
                    yield (rep, (lab[m], n, lab[mw]),
                           mode_apply(lv, n, vecs[mw]).terms, want)
    add(2, "derivative v={} n={} w={}".format, derivative())
    return rep


# ---------------------------------------------------------------------------
# Weak commutativity
# ---------------------------------------------------------------------------

def _int_commutator_cells(u: FockVector, v: FockVector, w: FockVector,
                          lo: int, hi: int) -> tuple:
    """``commutator_cells`` on [lo, hi]^2 as int term maps on the scale
    D = den(u) den(v) den(w): returns (D, {cell: ints}), zero cells dropped."""
    du, dv, dw = _den(u), _den(v), _den(w)
    ui, vi, wi = _on_scale(u, du), _on_scale(v, dv), _on_scale(w, dw)
    box = range(lo, hi + 1)
    uw = {e: mode_apply(ui, -e - 1, wi) for e in box}
    vw = {e: mode_apply(vi, -e - 1, wi) for e in box}
    cells = {}
    for e1 in box:
        for e2 in box:
            acc = {}
            _iaxpy(acc, mode_apply(ui, -e1 - 1, vw[e2]).terms, 1)
            _iaxpy(acc, mode_apply(vi, -e2 - 1, uw[e1]).terms, -1)
            if acc := _nonzero(acc):
                cells[(e1, e2)] = acc
    return du * dv * dw, cells


def commutator_cells(u: FockVector, v: FockVector, w: FockVector,
                     window: int) -> dict:
    """[Y(u,x1), Y(v,x2)]w coefficients on the +-window box, by cell."""
    den, cells = _int_commutator_cells(u, v, w, -window, window)
    return {cell: _off_scale(ints, den) for cell, ints in cells.items()}


def x_commutator_cells(u: FockVector, v: FockVector, w: FockVector,
                       window: int) -> dict:
    """[X(u,x1), X(v,x2)]w coefficients on the +-window box, by cell."""
    cells = {}
    for e1 in range(-window, window + 1):
        for e2 in range(-window, window + 1):
            val = (X_apply(u, X_apply(v, w, -e2), -e1)
                   - X_apply(v, X_apply(u, w, -e1), -e2))
            if val:
                cells[(e1, e2)] = val
    return cells


def weak_comm_check(u: FockVector, v: FockVector, w: FockVector,
                    window: int, n_max: int) -> VerificationReport:
    """Find the least n <= n_max with (x1-x2)^n [Y(u,x1),Y(v,x2)]w = 0 on
    all certified cells of the +-window box; None, with an uncertified
    cell, where the box misses every nonzero commutator cell.

    Order 0 is certified only where the commutator vanishes everywhere,
    and the box of radius wt u + wt v (top weights) decides that.  Cell
    (e1, e2) is [u_a, v_b]w with a = -e1-1, b = -e2-1, and by the
    commutator formula [u_a, v_b] = sum_{j>=0} C(a, j) (u_j v)_{a+b-j},
    where u_j v = 0 for j >= wt u + wt v.  If some u_j v is nonzero, let
    J be the largest such j and fix a + b = J - 1.  The cell is then a
    polynomial in a of degree J, with top coefficient (u_J v)_{-1} w / J!.
    That is nonzero: for nonzero x and w, the part of x_{-1} w with the
    most oscillator parts is the product of the parts of x and w with
    the most parts, in the polynomial ring C[h(-1), h(-2), ...], since
    every annihilation factor removes a part.  So the cell is nonzero at
    some a in 0..J: -J-1 <= e1 <= -1 and -J <= e2 <= 0.

    Only the box [-reach, window]^2 is computed, reach = max(window +
    n_max, wt u + wt v): the search reads cells in [-window - n_max,
    window]^2, and as J + 1 <= wt u + wt v and window >= 0, the box holds
    the region above, which decides order 0.
    """
    rep = VerificationReport(
        identity="weak-commutativity",
        parameters={"window": window, "n_max": n_max},
    )
    reach = max(window + n_max, u.max_weight() + v.max_weight())
    _, comm = _int_commutator_cells(u, v, w, -reach, window)
    box = range(-window, window + 1)

    def annihilates(n):
        for a1 in box:
            for a2 in box:
                acc = {}
                for k in range(n + 1):
                    if got := comm.get((a1 - (n - k), a2 - k)):
                        _iaxpy(acc, got, comb_int(n, k) * (-1) ** k)
                if any(acc.values()):
                    return False
        return True

    found = next((n for n in range(n_max + 1) if annihilates(n)), None)
    if found == 0 and comm:
        # zero on the box, nonzero beyond it: the box establishes no order
        rep.add_uncertified("annihilation-order")
        found = None
    elif found is None:
        rep.add_cell("annihilation-order", "not found", f"<= {n_max}", FAIL)
    else:
        rep.add_cell("annihilation-order", str(found), str(found), PASS)
    rep.data["order_found"] = found
    return rep


# ---------------------------------------------------------------------------
# The classical Jacobi identity
# ---------------------------------------------------------------------------

class _ProductTables:
    """The products of the two product terms of one (u, v, w) check, as
    int-valued vectors on the check's scale, each computed the first time
    a cell asks for it and freed with the check.

    coef(s, e, t) is the coefficient of x^e in the field of s applied to
    the int-valued t: Y for the classical identity, X for the dilated
    one.  By weight, coef(u, e, w) vanishes for e < -u_reach, and
    coef(v, e, w) for e < -v_reach.
    """

    def __init__(self, coef, u, v, w, u_reach, v_reach):
        self.u_reach, self.v_reach = u_reach, v_reach
        # the fills capture the inner tables, not self: a reference cycle
        # would keep every table alive past its check until a gc pass
        uw = self.uw = functools.cache(lambda e: coef(u, e, w))
        self.v_uw = functools.cache(lambda e, e_in: coef(v, e, uw(e_in)))
        # for u = v the two orders share one table set
        self.same = u == v
        if self.same:
            self.vw, self.u_vw = self.uw, self.v_uw
            return
        vw = self.vw = functools.cache(lambda e: coef(v, e, w))
        self.u_vw = functools.cache(lambda e, e_in: coef(u, e, vw(e_in)))


def _x_tables(u, v, w, ww) -> _ProductTables:
    """Tables of the X fields of u and v on w, for Fraction-valued u, v
    and w: on the scale den(u) den(v) den(w)."""
    du, dv, dw = _den(u), _den(v), _den(w)
    return _ProductTables(_x_coef, _weight_field(u, du), _weight_field(v, dv),
                          _on_scale(w, dw), ww, ww)


def _slice_half_sums(tab: _ProductTables, a0):
    """half(swap, b1, b2) = P_{s,t}(a0, b1, b2) = sum_k C(n, k) (-1)^k
    [s.(t.w)] at the x-exponents (b1 - n + k, b2 - k), n = -a0 - 1: one
    product term of the identity, delta arguments expanded in nonnegative
    powers of the inner variable, with (s, t) = (u, v), or (v, u) if
    swap.  An int term map on the tables' scale, zero sums kept, summed
    once per x0 slice and shared by the cells, so never written.

    The signed binomials of a half sum depend on (swap, b2) only, and so
    does the test that t.w is nonzero at x^(b2 - k): both are listed once
    per slice as (k - n, b2 - k, C(n, k) (-1)^k), and every b1 sums the
    same list."""
    n = -a0 - 1

    @functools.cache
    def terms(swap, b2):
        inner, reach = (tab.uw, tab.u_reach) if swap else (tab.vw, tab.v_reach)
        kmax = b2 + reach if n < 0 else min(b2 + reach, n)
        return [(k - n, b2 - k, c) for k in range(kmax + 1)
                if (c := comb_int(n, k) * (-1) ** k) and inner(b2 - k).terms]

    @functools.cache
    def half(swap, b1, b2):
        outer = tab.v_uw if swap else tab.u_vw
        acc = {}
        for d, e, c in terms(swap, b2):
            if (table := outer(b1 + d, e).terms) and acc:
                _iaxpy(acc, table, c)
            elif table:
                acc = dict(table) if c == 1 else {
                    m: c * x for m, x in table.items()}
        return acc
    return half


def _check_orders(tab: _ProductTables, windows: dict, top: int, den: int,
                  sides: list) -> list:
    """The cell engine of both identities: checks the (u, v) identity
    against sides[0] = (rep, terms, table) and, when a second side is
    given, the (v, u) identity against sides[1].  Returns the reports.

    The left side of the cell (a0, a1, a2) is

        P_{u,v}(a0, a1, a2) + (-1)^a0 P_{v,u}(a0, a2, a1)

    from the half sums of ``_slice_half_sums``, the second term being the
    first of the other order at x1 <-> x2, so with both orders each half
    sum enters one cell of each; for u = v the orders share them.  The
    right side is sum c table(i, a0 + a1 + a2) over the (i, c) of the
    list terms(a0, a1), the order's iterate term.  Both sides are int
    term maps on the scale den, for one ``add_int_cells`` call over both
    orders.  Cells with top + a0 + a1 + a2 + 1 < 0 vanish by weight and
    count as bulk passes without being summed; a cell whose two sums are
    empty counts as one where it is found, as ``add_int_cells`` would.
    """
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = (windows[x] for x in ("x0", "x1",
                                                                "x2"))
    r2 = range(lo2, hi2 + 1)

    def cells():
        for a0 in range(lo0, hi0 + 1):
            half = _slice_half_sums(tab, a0)
            sign = -1 if a0 % 2 else 1
            for swap, (rep, rhs_terms, table) in enumerate(sides):
                first = bool(swap) and not tab.same
                second = not swap and not tab.same
                for a1 in range(lo1, hi1 + 1):
                    row = range(max(lo2, -(top + a0 + a1 + 1)), hi2 + 1)
                    rep.bulk_passed += len(r2) - len(row)
                    if not row:
                        continue
                    terms = rhs_terms(a0, a1)
                    for a2 in row:
                        lhs = half(first, a1, a2)
                        if (other := half(second, a2, a1)) and lhs:
                            lhs = dict(lhs)
                            _iaxpy(lhs, other, sign)
                        elif other:
                            lhs = other if sign == 1 else {
                                m: -x for m, x in other.items()}
                        rhs = {}
                        for i, c in terms:
                            if (it := table(i, a0 + a1 + a2).terms) and rhs:
                                _iaxpy(rhs, it, c)
                            elif it:
                                rhs = dict(it) if c == 1 else {
                                    m: c * x for m, x in it.items()}
                        if lhs or rhs:
                            yield rep, (a0, a1, a2), lhs, rhs
                        else:
                            rep.bulk_passed += 1
    VerificationReport.add_int_cells(den, "x0^{} x1^{} x2^{}".format, cells())
    return [rep for rep, _, _ in sides]


def _delta_report(identity: str, windows: dict, **extra) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        parameters={"windows": {k: list(vv) for k, vv in sorted(windows.items())},
                    **extra},
    )


def _jacobi_rhs(s: FockVector, t: FockVector, w: FockVector, top: int):
    """(terms, table): the iterate term of the (s, t) identity for the
    int-valued s, t and w, as ``_check_orders`` sums it.  table(j, e) is
    (s_j t)_m w at m = -(e + j + 3), filled the first time a cell asks;
    terms(a0, a1) lists the (j, C(a0 + a1 + j + 1, k) (-1)^k), k = a0 +
    j + 1, with s_j t nonzero; s_j t = 0 for j >= top."""
    st = functools.cache(lambda j: mode_apply(s, j, t))

    def terms(a0, a1):
        return [(j, c) for j in range(-a0 - 1, top)
                if (c := comb_int(a0 + a1 + j + 1, a0 + j + 1)
                    * (-1) ** (a0 + j + 1)) and st(j).terms]
    return terms, functools.cache(
        lambda j, e: mode_apply(st(j), -(e + j + 3), w))


def _jacobi_reports(u, v, w, windows: dict, orders: int) -> list:
    """The report of the (u, v) identity and, for orders = 2, of the
    (v, u) one, from one set of product tables."""
    wu, wv, ww = u.max_weight(), v.max_weight(), w.max_weight()
    du, dv, dw = _den(u), _den(v), _den(w)
    ui, vi, wi = _on_scale(u, du), _on_scale(v, dv), _on_scale(w, dw)
    tab = _ProductTables(lambda s, e, t: mode_apply(s, -e - 1, t),
                         ui, vi, wi, wu + ww, wv + ww)
    sides = [(_delta_report("jacobi-identity", windows),
              *_jacobi_rhs(s, t, wi, wu + wv))
             for s, t in ((ui, vi), (vi, ui))[:orders]]
    return _check_orders(tab, windows, wu + wv + ww, du * dv * dw, sides)


def jacobi_check(u: FockVector, v: FockVector, w: FockVector,
                 windows: dict) -> VerificationReport:
    """The three-term delta-kernel identity, checked cell by cell on the
    requested exponent box.

    Every coefficient of every term applied to w is a finite exact mode
    sum, so each cell is compared exactly (binomials expanded in
    nonnegative powers of the second variable throughout).  Each cell is
    a binomial-weighted sum of entries of per-check mode tables.  The
    modes are integral, so on the scale D = den(u) den(v) den(w) (den the
    lcm of a vector's denominators) every table entry is an int-valued
    vector and every cell an int term map.
    """
    return _jacobi_reports(u, v, w, windows, 1)[0]


def jacobi_pair_checks(u: FockVector, v: FockVector, w: FockVector,
                       windows: dict) -> list:
    """[jacobi_check(u, v, w, windows), jacobi_check(v, u, w, windows)],
    with each product-term sum and mode table computed once for both."""
    return _jacobi_reports(u, v, w, windows, 2)


# ---------------------------------------------------------------------------
# The dilated Jacobi identity
# ---------------------------------------------------------------------------

def _compose_zhu_with_log(u: FockVector, v: FockVector,
                          r_order: int) -> MappingProxyType:
    """Y[u, -y01]v with y01 = log(1 - x0/x1), expanded exactly in the
    ratio r = x0/x1 through r^r_order.

    Zhu's change of variables gives it in closed form: for u of weight a,
    Y[u, -log(1 - r)]v = sum_n r^{-n-1} (1 - r)^{n+1-a} u_n v, so

        g_q = sum (-1)^k C(n+1-a, k) u_n v  over -n-1+k = q,

    with n from -r_order-1 to a + wt v - 1 and one ``mode_apply`` per
    weight component of u.  The weights are int binomials, so the sum is
    taken in ints on the scale den(u) den(v) and divided by it once.
    Returns {r-exponent: FockVector}, memoised on the terms of u and v,
    so every w of one (u, v) shares it; the mapping and its vectors are
    read-only.
    """
    return _compose_zhu_frozen(frozenset(u.terms.items()),
                               frozenset(v.terms.items()), r_order)


@functools.lru_cache(maxsize=None)
def _compose_zhu_frozen(u_terms: frozenset, v_terms: frozenset,
                        r_order: int) -> MappingProxyType:
    u, v = FockVector(dict(u_terms)), FockVector(dict(v_terms))
    du, dv = _den(u), _den(v)
    vi = _on_scale(v, dv)
    acc: dict = {}
    for a, comp in _weight_field(u, du):
        for n in range(-r_order - 1, a + v.max_weight()):
            if un := mode_apply(comp, n, vi).terms:
                for k in range(r_order + n + 2):      # q = k - n - 1
                    if c := comb_int(n + 1 - a, k) * (-1) ** k:
                        _iaxpy(acc.setdefault(k - n - 1, {}), un, c)
    return MappingProxyType({
        q: FockVector(MappingProxyType(vec.terms))
        for q, ints in sorted(acc.items())
        if (vec := _off_scale(ints, du * dv))})


def _dilated_lhs_cell(u, v, w, ww, a0, a1, a2) -> FockVector:
    """Coefficient of x0^a0 x1^a1 x2^a2 in the two product terms built on
    the weight-shifted operators, delta arguments simplified through the
    log relations (nonnegative powers of the inner variable)."""
    half = _slice_half_sums(_x_tables(u, v, w, ww), a0)
    acc = dict(half(False, a1, a2))
    _iaxpy(acc, half(True, a2, a1), -1 if a0 % 2 else 1)
    return _off_scale(acc, _den(u) * _den(v) * _den(w))


def _dilated_rhs(g_by_q: dict, q_min: int, den: int, w: FockVector):
    """(terms, table): the iterate term built on the ratio-expanded
    change-of-variables states g_q, for the int-valued w, as
    ``_check_orders`` sums it.  table(q, e) is the coefficient of
    x^(e + 1) in X(den g_q, x)w, an int-valued vector filled the first
    time a cell asks; terms(a0, a1) lists the (a0 - k, C(a0 + a1, k)
    (-1)^k) with g_(a0 - k) nonzero.  A weight-a component of den g_q is
    k p, p primitive (gcd 1, first coefficient in sorted order positive);
    each distinct (a, p) is interned as a small int i, whose table
    mode_apply(p, a - e - 2, w) is filled once per (i, e) and shared."""
    ids, prims, parts = {}, [], {}
    for q in g_by_q:
        parts[q] = []
        for a, comp in _weight_field(g_by_q[q], den):
            items = sorted(comp.terms.items())
            k = gcd(*comp.terms.values()) * (1 if items[0][1] > 0 else -1)
            p = tuple((mon, c // k) for mon, c in items)
            if (i := ids.setdefault((a, p), len(prims))) == len(prims):
                prims.append((a, FockVector(dict(p))))
            parts[q].append((i, k))
    shared = functools.cache(
        lambda i, e: mode_apply(prims[i][1], prims[i][0] - e - 2, w))

    def table(q, e):
        acc = {}
        for i, k in parts[q]:
            _iaxpy(acc, shared(i, e).terms, k)
        return FockVector(_nonzero(acc))

    def terms(a0, a1):
        n = a0 + a1
        kmax = a0 - q_min if n < 0 else min(a0 - q_min, n)
        return [(a0 - k, c) for k in range(kmax + 1)
                if (c := comb_int(n, k) * (-1) ** k) and a0 - k in g_by_q]
    return terms, functools.cache(table)


def _dilated_rhs_cell(g_by_q: dict, q_min: int, w, a0, a1, a2) -> FockVector:
    """Coefficient of x0^a0 x1^a1 x2^a2 in the iterate term of the
    dilated identity, summed in ints on the scale den_g den(w), den_g the
    lcm of the denominators of the g_q."""
    den_g = lcm(*map(_den, g_by_q.values()))
    dw = _den(w)
    terms, table = _dilated_rhs(g_by_q, q_min, den_g, _on_scale(w, dw))
    acc = {}
    for q, c in terms(a0, a1):
        _iaxpy(acc, table(q, a0 + a1 + a2).terms, c)
    return _off_scale(acc, den_g * dw)


def _dilated_reports(u, v, w, windows: dict, ydeg: int, orders: int) -> list:
    """The report of the (u, v) dilated identity and, for orders = 2, of
    the (v, u) one, from one set of X-mode tables."""
    wu, wv, ww = u.max_weight(), v.max_weight(), w.max_weight()
    r_order = max(ydeg, windows["x0"][1] + wu + wv + 1)
    du, dv, dw = _den(u), _den(v), _den(w)
    wi = _on_scale(w, dw)
    sides = []
    for s, t in ((u, v), (v, u))[:orders]:
        # the change-of-variables states are on the scale den(s) den(t)
        g_by_q = _compose_zhu_with_log(s, t, r_order)
        sides.append((_delta_report("dilated-jacobi-identity", windows,
                                    ydeg=ydeg),
                      *_dilated_rhs(g_by_q, min(g_by_q, default=0), du * dv,
                                    wi)))
    return _check_orders(_x_tables(u, v, w, ww), windows, wu + wv + ww,
                         du * dv * dw, sides)


def dilated_jacobi_check(u: FockVector, v: FockVector, w: FockVector,
                         windows: dict, ydeg: int) -> VerificationReport:
    """The dilation-variable Jacobi identity: delta kernels carry the
    exponential of the log series, and the iterate slot holds the
    change-of-variables operator at the negated log series.

    The ratio expansion is carried to whatever order the requested x0
    window needs (ydeg acts as a floor for the composition order), so
    every cell in the box is exact.  Each cell is a binomial-weighted
    sum of entries of per-check X-mode tables, as int-valued vectors on
    the scale D = den(u) den(v) den(w).  The iterate term is on it too:
    g(r) = Y[u, -log(1 - r)]v = Y((1 - r)^{-L(0)} u, r/(1 - r))v has int
    binomial weights, so each g_q is a multiple of 1/(den(u) den(v)); a
    g_q off that scale raises.
    """
    return _dilated_reports(u, v, w, windows, ydeg, 1)[0]


def dilated_jacobi_pair_checks(u: FockVector, v: FockVector, w: FockVector,
                               windows: dict, ydeg: int) -> list:
    """[dilated_jacobi_check(u, v, ...), dilated_jacobi_check(v, u, ...)],
    with each product-term sum and X-mode table computed once for both."""
    return _dilated_reports(u, v, w, windows, ydeg, 2)
