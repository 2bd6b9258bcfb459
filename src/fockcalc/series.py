"""Sparse multivariate formal series with certified exponent regions.

Two kinds of variables coexist:

* truncated-nonnegative ("trunc") variables: the true series has only
  nonnegative exponents in them, and values are certified through a
  total-degree cap ``tcap`` over the whole trunc group;
* window variables: the true series is doubly infinite, and only
  exponents inside a certified interval [lo, hi] are known (None on a
  side means certified all the way out, i.e. known zero beyond the
  stored support in that direction).

Arithmetic propagates certified regions conservatively and raises
``UncertifiedError`` rather than ever emitting an unknown coefficient as
if it were exact.  The ++ pole sums, over a linear form of the trunc
variables, stay symbolic in ``LocalizedSeries`` and are expanded under
an explicit ``ExpansionConvention`` by exact division (a remainder
raises); the ++ pair's scalar has a closed form.  Only these expansions
introduce negative trunc exponents, recorded per series in
``neg_floor`` (below the floor the value is uncertified, not zero).

On this core the module builds the colon- and ++-ordered generating
products of oscillator pairs, the contraction identity check, and the
verifier for the generating-function commutator identity of the
zeta-regularized quadratic family.  That verifier sums its delta
products and exponentials in closed form, so the formal delta function,
the translation and dilation exponentials as series and the binomial
pole expansion live in the tests, as references.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from fractions import Fraction
from math import factorial, lcm, prod
from types import MappingProxyType

from .exact import ZERO, UsageError, _add_into, _divide_out, bernoulli
from .fock import (FockVector, _den, _iaxpy, _nonzero, _off_scale,
                   _on_scale, h_apply)
from .quadratic import _lpq_mon
from .report import VerificationReport


class UncertifiedError(ValueError):
    """A coefficient outside the certified region was requested or needed."""


# A formal variable with its exponent policy.  kind "trunc": nonnegative
# exponents, truncated (order = default cap); kind "window": integer
# exponents certified on [lo, hi].
VarSpec = namedtuple("VarSpec", "name kind lo hi order",
                     defaults=(None, None, None))


def trunc_var(name: str, order: int | None = None) -> VarSpec:
    return VarSpec(name, "trunc", order=order)


def window_var(name: str, lo: int, hi: int) -> VarSpec:
    if lo > hi:
        raise UsageError("window lo must be <= hi")
    return VarSpec(name, "window", lo=lo, hi=hi)


# Negative powers are permitted only in the distinguished variable.
ExpansionConvention = namedtuple("ExpansionConvention", "distinguished")

NEG_POWERS_Y1 = ExpansionConvention("y1")
NEG_POWERS_Y2 = ExpansionConvention("y2")


def convention(name: str) -> ExpansionConvention:
    table = {"neg-powers-y1": NEG_POWERS_Y1, "neg-powers-y2": NEG_POWERS_Y2}
    if name not in table:
        raise UsageError(f"unknown expansion convention {name!r}")
    return table[name]


def _min_none(a, b):
    # None acts as +infinity
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@functools.lru_cache(maxsize=None)
def comb_int(a: int, b: int) -> int:
    """Binomial coefficient with arbitrary integer top argument; memoised,
    since the mode tables ask for a few hundred distinct pairs many
    thousand times."""
    if b < 0:
        return 0
    num = 1
    for i in range(b):
        num *= a - i
    return num // factorial(b)


class MultiSeries:
    """Sparse series over a fixed ordered variable tuple.

    terms maps exponent tuples to coefficients (Fraction or FockVector).
    Certification state: ``x_ival`` per window variable, ``tcap`` for the
    trunc group (None = complete), ``neg_floor`` marking trunc variables
    whose negative exponents are certified only down to a floor.
    """

    __slots__ = ("varspecs", "terms", "x_ival", "tcap", "neg_floor", "_pos",
                 "_trunc", "_windows")

    def __init__(self, varspecs, terms=None, x_ival=None, tcap=None,
                 neg_floor=None):
        self.varspecs = tuple(varspecs)
        self._pos = {v.name: i for i, v in enumerate(self.varspecs)}
        self._trunc = tuple(i for i, v in enumerate(self.varspecs)
                            if v.kind == "trunc")
        # (name, position) of each window variable, for ``known``
        self._windows = tuple((v.name, i) for i, v in enumerate(self.varspecs)
                              if v.kind == "window")
        self.terms = terms if terms is not None else {}
        self.x_ival = dict(x_ival) if x_ival else {}
        for v in self.varspecs:
            if v.kind == "window" and v.name not in self.x_ival:
                self.x_ival[v.name] = (v.lo, v.hi)
        self.tcap = tcap
        self.neg_floor = dict(neg_floor) if neg_floor else {}

    # -- structure helpers --------------------------------------------------

    def pos(self, name: str) -> int:
        return self._pos[name]

    def window_names(self):
        return tuple(name for name, _ in self._windows)

    def tdeg(self, cell) -> int:
        return sum(cell[i] for i in self._trunc)

    def same_space(self, other: "MultiSeries") -> bool:
        return self.varspecs == other.varspecs

    # -- certification --------------------------------------------------------

    def known(self, cell) -> bool:
        """True when the exact coefficient at the cell is determined."""
        for i in self._trunc:
            if cell[i] < 0:
                name = self.varspecs[i].name
                if name in self.neg_floor:
                    if cell[i] < self.neg_floor[name]:
                        return False
                else:
                    return True    # known zero: true support is nonnegative
        if self.tcap is not None and self.tdeg(cell) > self.tcap:
            return False
        for name, i in self._windows:
            lo, hi = self.x_ival[name]
            e = cell[i]
            if lo is not None and e < lo:
                return False
            if hi is not None and e > hi:
                return False
        return True

    def coeff(self, cell):
        cell = tuple(cell)
        if not self.known(cell):
            raise UncertifiedError(f"cell {cell} outside certified region")
        got = self.terms.get(cell)
        if got is not None:
            return got
        for c in self.terms.values():
            return c - c         # zero of the coefficient space
        return ZERO

    def _prune(self):
        dead = [c for c in self.terms if not self.terms[c] or not self.known(c)]
        for c in dead:
            del self.terms[c]
        return self

    # -- linear operations ----------------------------------------------------

    def add(self, other: "MultiSeries") -> "MultiSeries":
        if not self.same_space(other):
            raise ValueError("series over different variables")
        ival = {}
        for name in self.window_names():
            alo, ahi = self.x_ival[name]
            blo, bhi = other.x_ival[name]
            lo = alo if blo is None else (blo if alo is None else max(alo, blo))
            hi = ahi if bhi is None else (bhi if ahi is None else min(ahi, bhi))
            ival[name] = (lo, hi)
        floor = dict(self.neg_floor)
        for name, f in other.neg_floor.items():
            floor[name] = max(floor.get(name, f), f)
        out = MultiSeries(self.varspecs, dict(self.terms), ival,
                          _min_none(self.tcap, other.tcap), floor)
        for cell, c in other.terms.items():
            _add_into(out.terms, cell, c)
        return out._prune()

    # -- multiplication ---------------------------------------------------------

    def _supp(self, name):
        i = self._pos[name]
        if not self.terms:
            return (None, None)
        exps = [cell[i] for cell in self.terms]
        return (min(exps), max(exps))

    def mul(self, other: "MultiSeries") -> "MultiSeries":
        """Certified product.

        Both factors must be ordinary in the trunc group (expanded pole
        series never multiply; expand last).  Per window variable, the
        unknown region of either factor must be matched by certified-zero
        behaviour of the other, else the certified result region is empty
        and this raises.
        """
        if not self.same_space(other):
            raise ValueError("series over different variables")
        if self.neg_floor or other.neg_floor:
            raise UncertifiedError("cannot multiply expanded pole series; "
                                   "expand after all products")
        tcap = _min_none(self.tcap, other.tcap)
        ival = {}
        for name in self.window_names():
            ival[name] = _mul_interval(self.x_ival[name], self._supp(name),
                                       other.x_ival[name], other._supp(name))
        out = MultiSeries(self.varspecs, {}, ival, tcap)
        for ca, a in self.terms.items():
            for cb, b in other.terms.items():
                cell = tuple(x + y for x, y in zip(ca, cb))
                if tcap is not None and out.tdeg(cell) > tcap:
                    continue
                _add_into(out.terms, cell, a * b)
        return out._prune()


def _mul_interval(a_iv, a_supp, b_iv, b_supp):
    """Certified interval of a product in one window variable.

    A cell of the product is certified only when every contributing
    split avoids the unknown regions: an unknown region of one factor
    must be matched by certified-zero behaviour of the other (requiring
    certification to infinity on that side), and two unknown regions on
    the same side must not be able to meet.  Support bounds are None for
    a factor with no stored terms (certified zero throughout its
    interval).
    """
    alo, ahi = a_iv
    blo, bhi = b_iv
    asmin, asmax = a_supp
    bsmin, bsmax = b_supp

    def empty():
        raise UncertifiedError(
            "window-variable product has an empty certified region")

    lo_cands, hi_cands = [], []
    if alo is not None:              # A unknown below: B must vanish above
        if bhi is not None:
            empty()
        if bsmax is not None:
            lo_cands.append(alo + bsmax)
        if blo is not None:
            lo_cands.append(alo + blo - 1)
    if blo is not None:              # B unknown below: A must vanish above
        if ahi is not None:
            empty()
        if asmax is not None:
            lo_cands.append(blo + asmax)
        if alo is not None:
            lo_cands.append(alo + blo - 1)
    if ahi is not None:              # A unknown above: B must vanish below
        if blo is not None:
            empty()
        if bsmin is not None:
            hi_cands.append(ahi + bsmin)
        if bhi is not None:
            hi_cands.append(ahi + bhi + 1)
    if bhi is not None:              # B unknown above: A must vanish below
        if alo is not None:
            empty()
        if asmin is not None:
            hi_cands.append(bhi + asmin)
        if ahi is not None:
            hi_cands.append(ahi + bhi + 1)
    lo = max(lo_cands) if lo_cands else None
    hi = min(hi_cands) if hi_cands else None
    if lo is not None and hi is not None and lo > hi:
        empty()
    return (lo, hi)


# ---------------------------------------------------------------------------
# Exponentials of linear forms
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _exp_cells(coeffs: tuple, tcap: int) -> tuple:
    """Term list of exp(sum c_i u_i) through total degree tcap, cells in
    lexicographic order; each value prod_i c_i^e_i / e_i! is one int
    numerator over one int denominator."""
    cells = [((), 1, 1, tcap)]
    for c in coeffs:
        cells = [(cell + (e,), num * c ** e, den * factorial(e), budget - e)
                 for cell, num, den, budget in cells
                 for e in range(budget + 1 if c else 1)]
    return tuple((cell, Fraction(num, den)) for cell, num, den, _ in cells)


# ---------------------------------------------------------------------------
# Localized pole series
# ---------------------------------------------------------------------------

class LocalizedSeries:
    """body / lambda^order with lambda an integer linear form in trunc vars.

    The body is an ordinary (nonnegative) series; expansion into a
    MultiSeries happens once, at the very end, under an explicit
    convention.
    """

    __slots__ = ("pole", "order", "body")

    def __init__(self, pole: dict, order: int, body: MultiSeries):
        if order < 0:
            raise UsageError("pole order must be >= 0")
        self.pole = {k: v for k, v in pole.items() if v}
        self.order = order
        self.body = body

    def expand(self, conv: ExpansionConvention, dvar_floor: int) -> MultiSeries:
        """The expansion of a body that lambda^k divides, certified for
        cells with distinguished exponent >= dvar_floor and total degree
        <= body.tcap - k.

        The body must be scalar; only its cells B of total degree <=
        body.tcap are read, as ints over the lcm D of their denominators.
        Where lambda^k divides B (``_divide_out``: checked, never assumed),
        as every ++ pole sum does, B/lambda^k is a polynomial, its own
        expansion under either convention, and of total degree <=
        body.tcap - k, so certified; its cells at d exponent >= dvar_floor
        are returned, by descending d exponent.  A remainder raises.
        """
        dvar = conv.distinguished
        c_d = self.pole.get(dvar, 0)
        if not c_d:
            raise UsageError(
                f"distinguished variable {dvar} does not appear in the pole")
        body, k = self.body, self.order
        if k == 0:
            return body
        if body.tcap is None:
            raise UsageError("pole expansion needs a truncated body")
        if any(body.varspecs[body.pos(n)].kind != "trunc" for n in self.pole):
            raise UsageError("pole must be a linear form in trunc variables")
        di = body.pos(dvar)
        mu = {body.pos(n): c for n, c in self.pole.items() if n != dvar}
        complete = {n: (None, None) for n in body.window_names()}
        out = MultiSeries(body.varspecs, {}, complete, body.tcap - k,
                          {dvar: dvar_floor})
        cells = [(b, val) for b, val in body.terms.items()
                 if body.tdeg(b) <= body.tcap]
        if not cells:
            return out
        den = lcm(*(val.denominator for _, val in cells))
        cells = sorted(((b, val.numerator * (den // val.denominator))
                        for b, val in cells), key=lambda item: -item[0][di])
        if (quot := _divide_out(cells, di, c_d, mu, k)) is None:
            raise ValueError(f"the pole to the power {k} does not divide "
                             "the body")
        out.terms = {b: Fraction(x, den) for b, x in quot.items()
                     if b[di] >= dvar_floor}
        return out


def _geometric_pole_coeffs(order: int):
    """Coefficients of G(u) = u/(1 - e^{-u}) = sum_k B_k (-u)^k / k!."""
    return [bernoulli(k) * (-1) ** k / Fraction(factorial(k))
            for k in range(order + 1)]


# ---------------------------------------------------------------------------
# Oscillator generating products
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _pair_weights(a: tuple, b: tuple, tcap: int) -> tuple:
    """The y-cells of exp(-j a.y - k b.y) through total degree tcap, as
    polynomials in the mode indices j and k.

    a and b are int coefficient tuples over the trunc variables.  The
    y^alpha coefficient is sum_{p+q=|alpha|} C_alpha(p, q) j^p k^q, where
    C_alpha(p, q) sums prod_v (-a_v)^{s_v} (-b_v)^{t_v} / (s_v! t_v!) over
    the splits alpha = s + t with |s| = p.  Returned as
    ((alpha, den, ((p, q, weight), ...)), ...) with den = prod_v alpha_v!
    and the int weights den * C_alpha(p, q): sums of products of
    binomials, so exact by construction.
    """
    out = []

    def splits(alpha):
        # (p, q, prod_v C(alpha_v, s_v) (-a_v)^{s_v} (-b_v)^{t_v})
        parts = [(0, 0, 1)]
        for e, x, y in zip(alpha, a, b):
            parts = [(p + s, q + e - s,
                      w * comb_int(e, s) * (-x) ** s * (-y) ** (e - s))
                     for p, q, w in parts for s in range(e + 1)]
        return parts

    # the exponents of total degree <= tcap, 0 where a_v = b_v = 0
    for alpha in itertools.product(*(range(tcap + 1 if x or y else 1)
                                     for x, y in zip(a, b))):
        if sum(alpha) > tcap:
            continue
        weights = {}
        for p, q, w in splits(alpha):
            if w:
                _add_into(weights, (p, q), w)
        if weights:
            den = 1
            for e in alpha:
                den *= factorial(e)
            out.append((alpha, den, tuple((p, q, w) for (p, q), w
                                          in sorted(weights.items()))))
    return tuple(out)


def _pair_table(p: int, q: int, n: int, nums) -> FockVector:
    """sum_{j+k=n} j^p k^q :h(j)h(k): on the int combination nums of
    monomials, with int coefficients."""
    if len(nums) == 1 and nums[0][1] == 1:
        return _lpq_mon(p, q, n, nums[0][0])
    terms = {}
    for mon, c in nums:
        _iaxpy(terms, _lpq_mon(p, q, n, mon).terms, c)
    return FockVector(_nonzero(terms))


def slot_pair_apply(varspecs, a_form: dict, b_form: dict, xname: str,
                    window: tuple, v: FockVector, tcap: int) -> MultiSeries:
    """:h(e^a x) h(e^b x): applied to v, unhalved.

    a and b are integer linear forms in the trunc variables.  The
    coefficient of x^e is sum_j :h(j)h(n-j): v exp(-j a - (n-j) b) with
    n = -e, a finite sum on any finite vector.  Its y^alpha coefficient
    is sum_{p+q=|alpha|} C_alpha(p, q) sum_{j+k=n} j^p k^q :h(j)h(k): v,
    summed in ints from the ``_lpq_mon`` tables of v's monomials (over
    the lcm of v's denominators) and the weights of ``_pair_weights``.
    """
    pos = {vs.name: i for i, vs in enumerate(varspecs)}
    xi = pos[xname]
    lo, hi = window
    ival = {vs.name: ((lo, hi) if vs.name == xname else (None, None))
            for vs in varspecs if vs.kind == "window"}
    out = MultiSeries(varspecs, {}, ival, tcap)
    if not v:
        return out
    trunc = [i for i, vs in enumerate(varspecs) if vs.kind == "trunc"]
    names = [varspecs[i].name for i in trunc]
    weights = _pair_weights(tuple(a_form.get(n, 0) for n in names),
                            tuple(b_form.get(n, 0) for n in names), tcap)
    den_v = _den(v)
    nums = tuple(_on_scale(v, den_v).terms.items())
    for e in range(lo, hi + 1):
        tables = {}
        for alpha, den, pq_weights in weights:
            acc = {}
            for p, q, w in pq_weights:
                table = tables.get((p, q))
                if table is None:
                    table = tables[p, q] = _pair_table(p, q, -e, nums)
                _iaxpy(acc, table.terms, w)
            vec = _off_scale(acc, den * den_v)
            if vec:
                cell = [0] * len(varspecs)
                for i, x in zip(trunc, alpha):
                    cell[i] = x
                cell[xi] = e
                out.terms[tuple(cell)] = vec
    return out


def normal_ordered_pair(y1: str, y2: str, xname: str, v: FockVector,
                        window: tuple, order: int) -> MultiSeries:
    """:h(e^{y1} x) h(e^{y2} x): v, unhalved (the generating function of
    the quadratic family carries the extra 1/2)."""
    varspecs = (trunc_var(y1, order), trunc_var(y2, order),
                window_var(xname, *window))
    return slot_pair_apply(varspecs, {y1: 1}, {y2: 1}, xname, window, v, order)


def plusplus_pair(y1: str, y2: str, xname: str, v: FockVector, window: tuple,
                  order: int,
                  conv: ExpansionConvention = NEG_POWERS_Y1) -> MultiSeries:
    """++h(e^{y1} x) h(e^{y2} x)++ v: the colon product minus S v on the
    x^0 cells, S = d/dy1 [1/(1 - e^{-u})] with u = y1 - y2.

    With u/(1 - e^{-u}) = sum_k g_k u^k (``_geometric_pole_coeffs``), S =
    sum_k h_k u^{k-2}, h_k = (k - 1) g_k.  The one pole term, h_0 = -1,
    is -u^{-2} = -sum_m (m + 1) y_o^m y_d^{-m-2} with negative powers in
    the distinguished slot y_d; the terms k >= 2 are expanded
    binomially.  Listed: total degree <= order, y_d exponent >=
    -(2 + order), so m <= order and k <= order + 2.
    """
    dvar = conv.distinguished
    if dvar not in (y1, y2):
        raise UsageError("convention must distinguish one of the pair slots")
    out = normal_ordered_pair(y1, y2, xname, v, window, order)
    out.neg_floor = {dvar: -(2 + order)}
    if not v or not window[0] <= 0 <= window[1]:
        return out
    scalar = {}
    for m in range(order + 1):
        cell = [m, m, 0]
        cell[0 if dvar == y1 else 1] = -m - 2
        scalar[tuple(cell)] = -(m + 1)
    for k, g in enumerate(_geometric_pole_coeffs(order + 2)):
        if k >= 2 and g:
            # (y1 - y2)^p = sum_i C(p, i) y1^i (-y2)^(p-i)
            p = k - 2
            for i in range(p + 1):
                scalar[i, p - i, 0] = ((k - 1) * g * comb_int(p, i)
                                       * (-1) ** (p - i))
    for cell, c in scalar.items():
        _add_into(out.terms, cell, v.scale(-c))
    return out


# ---------------------------------------------------------------------------
# Contraction identity
# ---------------------------------------------------------------------------

def contraction_check(v: FockVector, window: int) -> VerificationReport:
    """h(x1)h(x2) v = :h(x1)h(x2): v + [x2 d/dx2 1/(1-x2/x1)] v on the
    +-window box.

    Left side by iterated application; right side by normal-ordered
    application plus the geometric contraction scalar
    sum_{k>=1} k (x2/x1)^k acting as identity.
    """
    rep = VerificationReport(
        identity="contraction",
        parameters={"weight": v.max_weight(), "window": window},
    )
    # both sides as ints on the scale den(v); each h(-e) v is built once
    d = _den(v)
    vi = _on_scale(v, d)
    box = range(-window, window + 1)
    hv = {e: h_apply(-e, vi) for e in box}

    def cells():
        for e1 in box:
            for e2 in box:
                lhs = h_apply(-e1, hv[e2]).terms
                # normal order: the annihilation factor h(-e1) acts first
                rhs = h_apply(-e2, hv[e1]).terms if e1 < 0 < e2 else lhs
                if e1 + e2 == 0 < e2:
                    _iaxpy(rhs, vi.terms, e2)
                yield rep, (e1, e2), lhs, rhs
    VerificationReport.add_int_cells(d, "x1^{} x2^{}".format, cells())
    return rep


# ---------------------------------------------------------------------------
# Generating-function commutator identity of the regularized family
# ---------------------------------------------------------------------------

# the four right-hand terms: (outer variable, a-slot form, b-slot var,
# delta dilation pair (f, g)) for delta(e^f x1 / e^g x2)
_RHS_TERMS = (
    ("y1", {"y1": -1, "y2": 1, "y3": 1}, "y4", ("y1", "y3")),
    ("y1", {"y1": -1, "y2": 1, "y4": 1}, "y3", ("y1", "y4")),
    ("y2", {"y1": 1, "y2": -1, "y3": 1}, "y4", ("y2", "y3")),
    ("y2", {"y1": 1, "y2": -1, "y4": 1}, "y3", ("y2", "y4")),
)
_YS = ("y1", "y2", "y3", "y4")


def _ys(form: dict) -> tuple:
    """An int linear form as its coefficient tuple over y1..y4."""
    return tuple(form.get(y, 0) for y in _YS)


def _exact_div(num: int, den: int) -> int:
    """num / den, which must be an int: a remainder raises, so no value is
    ever floored onto an int scale."""
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"{num}/{den} is not on the int scale")
    return q


def _genfun_space(w: int, d: int) -> tuple:
    """Variables of the generating-function identity on the +-w box."""
    return tuple(trunc_var(y, d) for y in _YS) + (
        window_var("x1", -w, w), window_var("x2", -w, w))


def _genfun_floor(d: int) -> int:
    return -(3 + 3 * d) - 1


@functools.lru_cache(maxsize=None)
def _plusplus_pieces(window: int, ydeg: int) -> tuple:
    """The convention-free part of the ++ correction: for each n in the
    window, the pole sums ((n, (LocalizedSeries, ...)), ...).

    Each of the four terms is +(1/4) d_outer [ W'(lam) e^{n(f-g)} ], lam =
    a - b, W(u) = 1/(1 - e^{-u}) and W'(lam) = H(lam) / lam^2 with H(u) =
    u G'(u) - G(u), G(u) = u/(1 - e^{-u}).  So the term is (lam d_outer P
    - 2 c P) / (4 lam^3) with P = H(lam) e^{n(f-g)} through total degree
    K = ydeg + 3 and c the outer coefficient of lam.  The four poles come
    in two opposite pairs, so the terms of each n are summed over a pole
    taken up to sign; only these sums are expanded, once per convention.
    The bodies' terms are read-only, since every convention shares them.

    The sums run in ints over den(H) K!: H's coefficients over the lcm of
    their denominators, the exponential's times K!.  A y-cell is one int
    key with digit j (base K + 1, place (K + 1)^j) the exponent of y_j+1.
    Every cell summed has total degree <= K, so no digit carries: a
    product cell is a key sum, and lam d_outer moves one unit from the
    outer digit to digit j.  Each pole sum is unpacked once.
    """
    varspecs = _genfun_space(window, ydeg)
    top = ydeg + 3
    base = top + 1
    place = [base ** j for j in range(len(_YS))]
    h = [(k - 1) * g for k, g in enumerate(_geometric_pole_coeffs(top))]
    den_h = lcm(*(x.denominator for x in h))
    fact = factorial(top)
    scale = 4 * den_h * fact
    parts = []
    for outer, a_form, b_var, (f, g) in _RHS_TERMS:
        pole = dict(a_form)
        pole[b_var] = pole.get(b_var, 0) - 1
        lam = _ys(pole)
        # H(lam) as (budget K - k, cells of h_k lam^k) for each h_k != 0
        body, power = [], {0: 1}
        for k, x in enumerate(h):
            if k:
                nxt = {}
                for key, v in power.items():
                    for p, c in zip(place, lam):
                        if c:
                            nxt[key + p] = nxt.get(key + p, 0) + v * c
                power = nxt
            if x:
                x = x.numerator * (den_h // x.denominator)
                body.append((top - k, [(key, x * v)
                                       for key, v in power.items()]))
        parts.append((_YS.index(outer), _ys({f: 1, g: -1}), pole, lam, body))
    out = []
    for n in range(-window, window + 1):
        by_pole = {}
        for o, fg, pole, lam, body in parts:
            # the exponential's cells up to each degree b, as prefix[b]
            by_deg = [[] for _ in range(top + 1)]
            for cell, x in _exp_cells(tuple(n * c for c in fg), top):
                by_deg[sum(cell)].append((
                    sum(e * p for e, p in zip(cell, place)),
                    _exact_div(x.numerator * fact, x.denominator)))
            prefix = list(itertools.accumulate(by_deg))
            product = {}
            get = product.get
            for budget, cells in body:
                efactor = prefix[budget]
                for key, x in cells:
                    for ekey, y in efactor:
                        k = key + ekey
                        product[k] = get(k, 0) + x * y
            # lam d_outer P - 2 c P, and -body / lam^3 for the pole -lam
            key = min(lam, tuple(-c for c in lam))
            first, piece = by_pole.setdefault(key, (pole, {}))
            sign = 1 if lam == _ys(first) else -1
            po = place[o]
            moves = [(p - po, c * sign) for p, c in zip(place, lam) if c]
            own = -2 * lam[o] * sign
            get = piece.get
            for key, x in product.items():
                piece[key] = get(key, 0) + own * x
                if e := key // po % base:
                    x *= e
                    for shift, c in moves:
                        k = key + shift
                        piece[k] = get(k, 0) + c * x
        pieces = []
        for pole, piece in by_pole.values():
            terms = {}
            for key, x in piece.items():
                if x:
                    cell = []
                    for _ in _YS:
                        key, e = divmod(key, base)
                        cell.append(e)
                    terms[tuple(cell) + (0, 0)] = Fraction(x, scale)
            pieces.append(LocalizedSeries(pole, 3, MultiSeries(
                varspecs, MappingProxyType(terms),
                {"x1": (None, None), "x2": (None, None)}, top)))
        out.append((n, tuple(pieces)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _plusplus_correction(conv: ExpansionConvention, window: int,
                         ydeg: int) -> tuple:
    """The scalar ++ correction of the right side, summed over the four
    terms, as ((n, series at x1^n x2^-n), ...) for n in the window: the
    pole sums of ``_plusplus_pieces`` expanded under the convention.
    Expansion is linear, so expanding the sums is exact.  The correction
    does not depend on the vector it acts on, so it is built once and
    shared; the series' terms are read-only.
    """
    floor_d = _genfun_floor(ydeg)
    out = []
    for n, pieces in _plusplus_pieces(window, ydeg):
        ser = None
        for loc in pieces:
            part = loc.expand(conv, floor_d)
            ser = part if ser is None else ser.add(part)
        ser.terms = MappingProxyType(ser.terms)
        out.append((n, ser))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _genfun_scalars(window: int, ydeg: int) -> tuple:
    """The vector-free int tables of the sides on the +-window box, as
    (E, lhs, rhs); built once and shared read-only by every vector.

    With T_{p,q}(n) = sum_{j+k=n} j^p k^q :h(j)h(k): (``_lpq_mon``), the
    sides at x1^e1 x2^e2 on v are, over the common scale E:
    - lhs ((ycell, ((p1, q1, p2, q2, c), ...)), ...): the left side is
      sum c [T_{p1,q1}(-e1), T_{p2,q2}(-e2)] v;
    - rhs[e1 + window] ((ycell, ((p, q, s), ...)), ...): the colon right
      side is sum s T_{p,q}(-e1-e2) v.  For one term (outer o, delta
      pair f, g, pair weights W over alpha!, ``_pair_weights``) and
      gamma = ycell + 1_o, the delta product at gamma is the sum over
      beta on f and g of W_{gamma-beta}(p, q) / (gamma-beta)! times
      e1^|beta| (-1)^beta_g / beta!.  d/d outer multiplies it by gamma_o
      and gamma! = gamma_o ycell!, so s sums -E / (4 ycell!)
      C(gamma_f, beta_f) C(gamma_g, beta_g) e1^|beta| (-1)^beta_g
      W_{gamma-beta}(p, q) over beta and the four terms.
    E = lcm(4 ydeg!, the ++ pole bodies' denominators): the pair weights
    of a cell divide by a divisor of ydeg!, and the expansion of the
    correction divides its bodies only by powers of the distinguished
    coefficient of the pole, +-1 in every pole here.
    """
    w, d = window, ydeg
    scale = lcm(4 * factorial(d), *(
        x.denominator for _, locs in _plusplus_pieces(w, d) for loc in locs
        for x in loc.body.terms.values()))
    lhs = tuple(
        (tuple(a + b for a, b in zip(alpha, beta)),
         tuple((p1, q1, p2, q2, _exact_div(scale * c1 * c2, 4 * da * db))
               for p1, q1, c1 in pq_a for p2, q2, c2 in pq_b))
        for alpha, da, pq_a in _pair_weights(_ys({"y1": 1}), _ys({"y2": 1}), d)
        for beta, db, pq_b in _pair_weights(_ys({"y3": 1}), _ys({"y4": 1}),
                                            d - sum(alpha)))
    rows = [{} for _ in range(2 * w + 1)]   # e1 + w -> ycell -> (p, q) -> s
    ycells = [c for c in itertools.product(range(d + 1), repeat=4)
              if sum(c) <= d]
    for outer, a_form, b_var, (f, g) in _RHS_TERMS:
        weights = {alpha: pq for alpha, _, pq in _pair_weights(
            _ys(a_form), _ys({b_var: 1}), d + 1)}
        o, fi, gi = (_YS.index(y) for y in (outer, f, g))
        for ycell in ycells:
            unit = _exact_div(scale, 4 * prod(map(factorial, ycell)))
            gamma = list(ycell)
            gamma[o] += 1
            for bf, bg in itertools.product(range(gamma[fi] + 1),
                                            range(gamma[gi] + 1)):
                alpha = list(gamma)
                alpha[fi] -= bf
                alpha[gi] -= bg
                pqs = weights.get(tuple(alpha), ())
                c = (comb_int(gamma[fi], bf) * comb_int(gamma[gi], bg)
                     * (-1) ** bg * unit)
                for e1 in range(-w, w + 1):
                    row = rows[e1 + w].setdefault(ycell, {})
                    for p, q, wt in pqs:
                        row[p, q] = (row.get((p, q), 0)
                                     - c * e1 ** (bf + bg) * wt)
    rhs = tuple(tuple((ycell, pqs) for ycell, row in by_cell.items()
                      if (pqs := tuple((p, q, s) for (p, q), s
                                       in sorted(row.items()) if s)))
                for by_cell in rows)
    return scale, lhs, rhs


def _genfun_int_sides(v: FockVector, w: int, d: int) -> tuple:
    """The convention-free sides of the identity on v in ints, as (E,
    den(v), den(v) v, lhs, rhs) with E of ``_genfun_scalars``.  lhs and
    rhs map each cell (y1..y4, x1, x2) where that side is nonzero to its
    int terms on the scale E den(v).  Both sides are certified through
    total y-degree d on the +-w box: every other compared cell is a
    certified zero of both."""
    scale, lhs_rows, rhs_rows = _genfun_scalars(w, d)
    den_v = _den(v)
    vi = _on_scale(v, den_v).terms
    table = functools.cache(
        lambda p, q, n: _pair_table(p, q, n, tuple(vi.items())).terms)
    lhs, rhs = {}, {}
    for e1, e2 in itertools.product(range(-w, w + 1), repeat=2):
        for ycell, combos in lhs_rows:
            acc = {}
            for p1, q1, p2, q2, c in combos:
                # T_1(-e1) T_2(-e2) v - T_2(-e2) T_1(-e1) v
                _iaxpy(acc, _pair_table(p1, q1, -e1, tuple(
                    table(p2, q2, -e2).items())).terms, c)
                _iaxpy(acc, _pair_table(p2, q2, -e2, tuple(
                    table(p1, q1, -e1).items())).terms, -c)
            if acc := _nonzero(acc):
                lhs[ycell + (e1, e2)] = acc
        for ycell, pqs in rhs_rows[e1 + w]:
            acc = {}
            for p, q, s in pqs:
                _iaxpy(acc, table(p, q, -e1 - e2), s)
            if acc := _nonzero(acc):
                rhs[ycell + (e1, e2)] = acc
    return scale, den_v, vi, lhs, rhs


def _genfun_cells(rep, sides, conv, w, d):
    """The cells of rep, the report of one convention: the int sides of
    ``_genfun_int_sides``, with the expanded ++ correction acting on v as
    identity added on the diagonal x2 = -x1, uncertified where the
    expansion is not.  Every other cell of the region is a bulk pass."""
    scale, _, vi, lhs, rhs = sides
    floor_d = _genfun_floor(d)
    correction = dict(_plusplus_correction(conv, w, d))
    candidates = set(lhs) | set(rhs)
    if vi:
        # the expansion leaves only the distinguished exponent negative,
        # never below floor_d, so the y-degree bounds the region
        for n, ser in correction.items():
            candidates.update(cell[:4] + (n, -n) for cell in ser.terms
                              if sum(cell) <= d)
    checked = sorted(candidates)
    # the compared region: x exponents in the +-w box, the distinguished
    # exponent down to floor_d, the others nonnegative, y-degree <= d
    rep.bulk_passed += (2 * w + 1) ** 2 * sum(
        comb_int(d - ed + 3, 3) for ed in range(floor_d, d + 1))
    rep.bulk_passed -= len(checked)
    for cell in checked:
        lv = lhs.get(cell, {})
        rv = rhs.get(cell, {})
        if cell[4] + cell[5] == 0:
            ser = correction[cell[4]]
            ycell = cell[:4] + (0, 0)
            if not ser.known(ycell):
                yield rep, (cell,), lv, None
                continue
            if c := ser.terms.get(ycell):
                rv = dict(rv)
                _iaxpy(rv, vi, _exact_div(c.numerator * scale, c.denominator))
        yield rep, (cell,), lv, rv


def regularized_commutator_checks(v: FockVector, window: int, ydeg: int,
                                  convs) -> list:
    """Verify the generating-function commutator identity of the
    zeta-regularized quadratic family on one vector, one report per
    convention in convs.

    Left side: the bracket of the two colon-ordered generating products,
    halved twice (the scalar ++-corrections cancel in any bracket).
    Right side: four terms, each a regularized generating function with a
    composite first slot times a dilated delta series, differentiated in
    an outer variable.  Pole parts are carried symbolically and expanded
    at comparison time under each convention; the colon parts of both
    sides do not depend on it and are built once, in ints on one scale
    per vector, for one ``add_int_cells`` call.  Compared cells: total
    y-degree <= ydeg, both x exponents in the +-window, the distinguished
    variable allowed down to the recorded pole floor.
    """
    sides = _genfun_int_sides(v, window, ydeg)
    reps = [VerificationReport(
        identity="regularized-commutator-genfun",
        parameters={"weight": v.max_weight(), "window": window, "ydeg": ydeg,
                    "convention": f"neg-powers-{conv.distinguished}",
                    "dvar_floor": _genfun_floor(ydeg)},
    ) for conv in convs]
    VerificationReport.add_int_cells(
        sides[0] * sides[1],                       # the scale E den(v)
        functools.partial(_cell_key, _genfun_space(window, ydeg)),
        itertools.chain.from_iterable(
            _genfun_cells(rep, sides, conv, window, ydeg)
            for rep, conv in zip(reps, convs)),
        listed=True)
    return reps


def regularized_commutator_check(v: FockVector, window: int, ydeg: int,
                                 conv: ExpansionConvention = NEG_POWERS_Y1,
                                 ) -> VerificationReport:
    """``regularized_commutator_checks`` under one convention."""
    return regularized_commutator_checks(v, window, ydeg, (conv,))[0]


def _cell_key(varspecs, cell):
    return " ".join(f"{v.name}^{e}" for v, e in zip(varspecs, cell) if e) or "1"
