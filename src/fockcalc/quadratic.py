"""Normal-ordered quadratic operators and their bracket verifiers.

The degree-n quadratic operator on the Fock space is
(1/2) sum_j :h(j) h(n-j):, and the r-indexed family weights each factor
by an r-th power of its mode index.  Normal ordering means annihilation
factors act first; on any finite vector only finitely many j contribute,
so applications are exact on the untruncated space.

The regularized family adds the exact scalar (-1)^r (1/2) zeta(-2r-1) to
the degree-0 operator.  Verifiers in this module check the bracket
relations of both families, decompose commutators over the spanning
family by exact linear algebra, test that regularized central terms are
pure monomials, and project operator parts onto Lie brackets of the
differential operators (-1)^{r+1} D^r (t^n D) D^r.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .exact import ZERO, UsageError, _add_into, rat_str, zeta_nonpositive
from .fock import (FockVector, _den, _iaxpy, _insert_part, _off_scale,
                   _on_scale, _remove_part, weight_basis, weight_index)
from .report import FAIL, PASS, VerificationReport


class WindowError(ValueError):
    """A requested block lies outside the certified window."""


class FitError(ValueError):
    """Exact linear fit is impossible or not unique at this truncation."""


# ---------------------------------------------------------------------------
# Operator applications (exact on the whole space)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _lpq_mon(p: int, q: int, n: int, mon: tuple) -> FockVector:
    """The sum over ordered pairs j + k = n of j^p k^q :h(j)h(k): applied
    to one basis monomial, with int coefficients (h-actions, weights and
    multiplicities are all integers).  At p = q = r this is 2 L^(r)(n),
    the table T_r(n).  The term map is read-only, since every caller
    shares the cached vector.
    """
    terms = {}
    # two creation modes: h(j)h(k) inserts the parts -j and -k
    for j in range(n + 1, 0):
        k = n - j
        _add_into(terms, _insert_part(_insert_part(mon, -j), -k),
                  j ** p * k ** q)
    for a in set(mon):
        b = n - a
        if b < 0:
            # h(b)h(a), from the ordered pairs (a, b) and (b, a): remove
            # one part a (times a * its multiplicity), insert the part -b;
            # for p != q the two orders can cancel
            if w := (a ** p * b ** q + b ** p * a ** q) * a * mon.count(a):
                _add_into(terms, _insert_part(_remove_part(mon, a), -b), w)
        elif b in mon and (mult := mon.count(b) * (mon.count(a) - (a == b))):
            # h(a)h(b) with both annihilating; the pair (b, a) is its own
            # term of this loop
            _add_into(terms, _remove_part(_remove_part(mon, b), a),
                      a ** (p + 1) * b ** (q + 1) * mult)
    return FockVector(MappingProxyType(terms))


def Lr_apply(r: int, n: int, v: FockVector) -> FockVector:
    """(1/2) sum_j j^r (n-j)^r :h(j)h(n-j): v, from the cached doubled
    action 2 L^(r)(n) = ``_lpq_mon(r, r, n, .)`` of each monomial of v,
    summed in ints on the scale 2 den(v); every coefficient is a Fraction."""
    if r < 0:
        raise UsageError("r must be >= 0")
    d = _den(v)
    acc = {}
    for mon, c in _on_scale(v, d).terms.items():
        _iaxpy(acc, _lpq_mon(r, r, n, mon).terms, c)
    return _off_scale(acc, 2 * d)


def L_apply(n: int, v: FockVector) -> FockVector:
    return Lr_apply(0, n, v)


def _zeta_shift(r: int) -> Fraction:
    """(-1)^r (1/2) zeta(-2r-1), the scalar that Lbar^(r)(0) adds."""
    return (-1) ** r * zeta_nonpositive(2 * r + 1) / 2


def Lbar_apply(r: int, n: int, v: FockVector) -> FockVector:
    """Regularized family: for n = 0 add (-1)^r (1/2) zeta(-2r-1) times v."""
    out = Lr_apply(r, n, v)
    if n == 0 and v:
        out = out + v.scale(_zeta_shift(r))
    return out


def _bracket_mon(r: int, s: int, m: int, n: int, mon: tuple) -> dict:
    """4 [L^(r)(m), L^(s)(n)] on one basis monomial, as int terms:
    T_r(m) T_s(n) - T_s(n) T_r(m) with T_r(k) = ``_lpq_mon(r, r, k, .)``.
    Scalar shifts cancel, so this is also the regularized bracket."""
    terms = {}
    for (a, j), (b, k), sign in (((r, m), (s, n), 1), ((s, n), (r, m), -1)):
        for mid, c in _lpq_mon(b, b, k, mon).terms.items():
            for out, d in _lpq_mon(a, a, j, mid).terms.items():
                _add_into(terms, out, sign * c * d)
    return terms


# A weight-graded operator given by its exact action on vectors; the key
# names its blocks in ``_MATRIX_CACHE``.
OperatorSpec = namedtuple("OperatorSpec", "key name degree apply")


def L_op(n: int) -> OperatorSpec:
    return OperatorSpec(("L", n), f"L({n})", n, lambda v: L_apply(n, v))


def Lr_op(r: int, n: int) -> OperatorSpec:
    return OperatorSpec(("Lr", r, n), f"L^({r})({n})", n,
                        lambda v: Lr_apply(r, n, v))


def Lbar_op(r: int, n: int) -> OperatorSpec:
    return OperatorSpec(("Lbar", r, n), f"Lbar^({r})({n})", n,
                        lambda v: Lbar_apply(r, n, v))


def identity_op() -> OperatorSpec:
    return OperatorSpec(("Id",), "Id", 0, lambda v: v)


# ---------------------------------------------------------------------------
# Graded matrices and certified commutators
# ---------------------------------------------------------------------------

class GradedOperator:
    """Per-weight exact matrix blocks of a weight-graded operator.

    Blocks are stored column-wise: cols[w][i] is the image of the i-th
    basis monomial of weight w, a vector of weight w - degree.  Blocks
    exist for every weight in the certified domain.
    """

    __slots__ = ("degree", "domain_bound", "cols")

    def __init__(self, degree: int, domain_bound: int, cols: dict):
        self.degree = degree
        self.domain_bound = domain_bound
        self.cols = cols

    def apply(self, v: FockVector) -> FockVector:
        acc = FockVector()
        for mon, c in v.terms.items():
            w = sum(mon)
            if w not in self.cols:
                raise WindowError(f"weight {w} outside certified domain")
            acc = acc + self.cols[w][weight_index(w)[mon]].scale(c)
        return acc


_MATRIX_CACHE: dict = {}


def to_matrix(spec: OperatorSpec, max_weight: int) -> GradedOperator:
    """Exact per-weight blocks of spec on all basis vectors <= max_weight."""
    cached = _MATRIX_CACHE.get((spec.key, max_weight))
    if cached is not None:
        return cached
    cols = {}
    for w in range(max_weight + 1):
        images = []
        for mon in weight_basis(w):
            img = spec.apply(FockVector({mon: Fraction(1)}))
            if img and w - spec.degree < 0:
                raise ValueError(f"{spec.name} image escapes to negative weight")
            # columns are shared through the cache, so they are read-only
            images.append(FockVector(MappingProxyType(img.terms)))
        cols[w] = tuple(images)
    out = GradedOperator(spec.degree, max_weight, cols)
    _MATRIX_CACHE[(spec.key, max_weight)] = out
    return out


def commutator(a: GradedOperator, b: GradedOperator, max_weight: int) -> GradedOperator:
    """[a, b] on every source weight where both orders are representable.

    A source weight w is certified when blocks exist for w and for the
    intermediate weights w - deg(b) and w - deg(a); uncertified weights
    are omitted rather than approximated.
    """
    cols = {}
    for w in range(max_weight + 1):
        if (max(w, w - b.degree) > a.domain_bound
                or max(w, w - a.degree) > b.domain_bound):
            continue
        cols[w] = tuple(a.apply(bcol) - b.apply(acol)
                        for acol, bcol in zip(a.cols[w], b.cols[w]))
    if not cols:
        raise WindowError("window too small to certify any commutator block")
    return GradedOperator(a.degree + b.degree, max(cols), cols)


# ---------------------------------------------------------------------------
# Bracket relation verifiers
# ---------------------------------------------------------------------------

def _verify_bracket(identity, m, n, max_weight, shift, central):
    """[L(m), L(n)] = (m-n) (L(m+n) + shift) + central on every basis
    monomial of weight <= max_weight; the shift of the degree-0 operator
    and the central term enter only at m + n = 0, and only on the right:
    the shift cancels from the bracket, which is ``_bracket_mon`` / 4."""
    scalar = (m - n) * shift + central if m + n == 0 else ZERO
    rep = VerificationReport(
        identity=identity,
        parameters={"m": m, "n": n, "max_weight": max_weight},
        data={"central_term": rat_str(central)},
    )
    # both sides as ints on the scale 4 den(scalar), every cell listed
    d = scalar.denominator

    def cells():
        for w in range(max_weight + 1):
            for mon in weight_basis(w):
                lhs = {out: d * c for out, c
                       in _bracket_mon(0, 0, m, n, mon).items()}
                rhs = {mon: 4 * scalar.numerator}
                _iaxpy(rhs, _lpq_mon(0, 0, m + n, mon).terms, 2 * (m - n) * d)
                yield rep, (list(mon),), lhs, rhs
    VerificationReport.add_int_cells(4 * d, str, cells(), listed=True)
    return rep


def verify_virasoro(m: int, n: int, max_weight: int) -> VerificationReport:
    """[L(m), L(n)] = (m-n) L(m+n) + (1/12)(m^3 - m) delta_{m+n,0}, exactly."""
    central = Fraction(m ** 3 - m, 12) if m + n == 0 else ZERO
    return _verify_bracket("virasoro-bracket", m, n, max_weight, ZERO, central)


def verify_modified_virasoro(m: int, n: int, max_weight: int) -> VerificationReport:
    """[Lbar(m), Lbar(n)] = (m-n) Lbar(m+n) + (1/12) m^3 delta_{m+n,0}."""
    central = Fraction(m ** 3, 12) if m + n == 0 else ZERO
    return _verify_bracket("modified-virasoro-bracket", m, n, max_weight,
                           _zeta_shift(0), central)


# ---------------------------------------------------------------------------
# Exact linear algebra helpers
# ---------------------------------------------------------------------------

def _primitive(row: list) -> tuple:
    """A row of ints or Fractions scaled to coprime ints, its first
    nonzero entry positive; the zero row stays zero."""
    den = lcm(*(x.denominator for x in row))
    row = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*row)
    if g and next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row) if g else tuple(row)


def solve_exact(rows, rhs, ncols):
    """Solve an overdetermined exact rational system A x = b.

    Returns (solution, unique).  On a rank-deficient but consistent
    system the particular solution with free variables set to zero is
    returned and unique is False.  Raises FitError when the system is
    inconsistent (no exact solution at all).

    Rows are cleared to primitive int rows, repeats dropped, and
    eliminated fraction-free (pivot * row - entry * pivot row).
    """
    aug = [row for row in dict.fromkeys(_primitive([*row, val])
                                        for row, val in zip(rows, rhs))
           if any(row)]
    pivots = []
    for col in range(ncols):
        at = len(pivots)
        pivot = next((i for i in range(at, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[at], aug[pivot] = aug[pivot], aug[at]
        prow = aug[at]
        pv = prow[col]
        for i, row in enumerate(aug):
            if i != at and (f := row[col]):
                aug[i] = _primitive([pv * x - f * y
                                     for x, y in zip(row, prow)])
        pivots.append(col)
    if any(row[ncols] for row in aug[len(pivots):]):
        raise FitError("inconsistent system: nonzero residual")
    sol = [ZERO] * ncols
    for row, col in zip(aug, pivots):
        sol[col] = Fraction(row[ncols], row[col])
    return sol, len(pivots) == ncols


def interpolate_polynomial(points):
    """Exact coefficients (low to high) of the unique polynomial of degree
    < len(points) through the given (x, y) pairs."""
    npts = len(points)
    rows = [[x ** k for k in range(npts)] for x, _ in points]
    sol, unique = solve_exact(rows, [y for _, y in points], npts)
    if not unique:
        # distinct nodes make the Vandermonde system regular
        raise ValueError("interpolation nodes must be distinct")
    return sol


# ---------------------------------------------------------------------------
# Central decomposition and its consequences
# ---------------------------------------------------------------------------

class CentralDecomposition:
    """[family(r)(m), family(s)(n)] = sum_j c_j family(j)(m+n) + scalar.

    operator_part[j] is the coefficient on the degree-(m+n) operator of
    index j, for j = 0..r+s; scalar_part multiplies the identity and can
    be nonzero only when m + n = 0.  residual maps each basis monomial to
    the exact defect vector and must be empty for a successful fit.
    unique records whether the truncation pins the coefficients; a
    degenerate-but-consistent fit still certifies the span containment.
    """

    def __init__(self, operator_part: list, scalar_part: Fraction,
                 residual: dict, unique: bool = True):
        self.operator_part = operator_part
        self.scalar_part = scalar_part
        self.residual = residual
        self.unique = unique

    @property
    def ok(self):
        return not self.residual


def central_decompose(r: int, s: int, m: int, n: int, max_weight: int,
                      regularized: bool = True) -> CentralDecomposition:
    """Fit [fam^(r)(m), fam^(s)(n)] over span{fam^(j)(m+n)} (+ Id if m+n=0).

    Solved exactly over all basis images up to max_weight.  The fit either
    has an exactly zero residual or fails; nothing is approximated.

    Each row is four times its equation: the commutator is
    ``_bracket_mon``, and 4 fam^(j)(m+n) is 2 ``_lpq_mon(j, j, m+n, .)``
    plus 4 times the zeta shift on the diagonal (regularized, m + n = 0).
    """
    if min(r, s) < 0:
        raise UsageError("r must be >= 0")
    jmax = r + s
    with_id = (m + n == 0)
    ncols = jmax + 1 + with_id
    shifts = [_zeta_shift(j) if regularized and with_id else 0
              for j in range(jmax + 1)]

    rows, rhs, images = [], [], {}
    for w in range(max_weight + 1):
        for mon in weight_basis(w):
            comm = _bracket_mon(r, s, m, n, mon)
            fams = [_lpq_mon(j, j, m + n, mon) for j in range(jmax + 1)]
            images[mon] = (comm, fams)
            support = set(comm).union(*(f.terms for f in fams),
                                      [mon] if with_id else ())
            for mu in sorted(support):
                diag = 4 * (mu == mon)
                row = [2 * f.terms.get(mu, 0) + diag * sh
                       for f, sh in zip(fams, shifts)]
                if with_id:
                    row.append(diag)
                rows.append(row)
                rhs.append(comm.get(mu, 0))

    sol, unique = solve_exact(rows, rhs, ncols)
    op_part = sol[:jmax + 1]
    scalar = sol[jmax + 1] if with_id else ZERO

    # the defect of the fit on each monomial, as an independent check;
    # the fit's identity part is the scalar plus the fitted zeta shifts
    ident = scalar + sum(c * sh for c, sh in zip(op_part, shifts))
    # summed in ints on the scale 4 d, d the lcm of the fit's denominators
    d = lcm(ident.denominator, *(c.denominator for c in op_part))
    op_ints = [c.numerator * (d // c.denominator) for c in op_part]
    residual = {}
    for mon, (comm, fams) in images.items():
        acc = {mon: -4 * ident.numerator * (d // ident.denominator)}
        _iaxpy(acc, comm, d)
        for c, f in zip(op_ints, fams):
            _iaxpy(acc, f.terms, -2 * c)
        if diff := _off_scale(acc, 4 * d):
            residual[mon] = diff
    return CentralDecomposition(op_part, scalar, residual, unique)


def verify_monomial_purity(r: int, s: int, m_max: int,
                           max_weight: int) -> VerificationReport:
    """Check that the central term of [Lbar^(r)(m), Lbar^(s)(-m)] is a pure
    monomial in m.

    The scalars for m = 1..m_max are interpolated exactly; the unique
    interpolating polynomial must have degree <= 2(r+s)+3 and exactly one
    nonzero coefficient, whose exponent and value are recorded.
    """
    degree_bound = 2 * (r + s) + 3
    rep = VerificationReport(
        identity="central-monomial-purity",
        parameters={"r": r, "s": s, "m_max": m_max, "max_weight": max_weight},
    )
    if m_max < degree_bound + 1:
        raise UsageError(
            f"m_max={m_max} gives too few interpolation points for degree "
            f"bound {degree_bound}")

    zero_dec = central_decompose(r, s, 0, 0, max_weight)
    rep.add_cell("scalar(m=0)", rat_str(zero_dec.scalar_part), "0")

    scalars = []
    for m in range(1, m_max + 1):
        dec = central_decompose(r, s, m, -m, max_weight)
        if not dec.ok:
            rep.add_cell(f"residual(m={m})", "NONZERO", "0", FAIL)
            return rep
        if not dec.unique:
            # the truncation does not pin the scalar: nothing is violated,
            # but a larger weight is needed before interpolation makes sense
            rep.add_uncertified(f"fit-unique(m={m})")
            return rep
        scalars.append(dec.scalar_part)

    coeffs = interpolate_polynomial(list(zip(range(1, m_max + 1), scalars)))
    top = max((k for k, c in enumerate(coeffs) if c), default=0)
    nonzero = [(k, c) for k, c in enumerate(coeffs) if c]
    rep.add_cell("interpolated-degree", str(top), f"<={degree_bound}",
                 PASS if top <= degree_bound else FAIL)
    rep.add_cell("nonzero-coefficients", str(len(nonzero)), "1",
                 PASS if len(nonzero) == 1 else FAIL)
    if len(nonzero) == 1:
        k, c = nonzero[0]
        rep.data["monomial_exponent"] = k
        rep.data["monomial_coefficient"] = rat_str(c)
        for m, sc in zip(range(1, m_max + 1), scalars):
            rep.add_cell(f"scalar(m={m})", rat_str(sc),
                         rat_str(c * Fraction(m) ** k))
    return rep


def _diff_op_coeff(r: int, n: int, p: int) -> int:
    """(-1)^{r+1} D^r (t^n D) D^r, with D = t d/dt, sends t^p to this
    multiple of t^{p+n}: each D on t^q multiplies by q."""
    return (-1) ** (r + 1) * p ** (r + 1) * (p + n) ** r


def _laurent_str(c, k: int) -> str:
    """The cell string of c t^k."""
    # a report format: the verify-diffop golden and expected.json pin it
    return f"LaurentPolyVector({rat_str(c)}*t^{k})" if c else "LaurentPolyVector(0)"


def verify_diff_op_projection(r: int, s: int, m: int, n: int,
                              max_weight: int, p_bound: int) -> VerificationReport:
    """Project the operator part of [L^(r)(m), L^(s)(n)] to differential
    operators and compare with the directly computed Lie bracket.

    Both sides are applied to t^p for |p| <= p_bound.  On t^p each
    operator gives one term, ``_diff_op_coeff`` times t^{p+n}, so each
    side is one number at t^{p+m+n}: sum_j c_j a_j(m+n, p) on the left,
    with a_r(n, p) = ``_diff_op_coeff(r, n, p)``, and a_r(m, p+n) a_s(n, p)
    - a_s(n, p+m) a_r(m, p) on the right.  The scalar part of the
    decomposition (the cocycle value) is recorded as data, not asserted
    against any formula.
    """
    rep = VerificationReport(
        identity="diffop-projection",
        parameters={"r": r, "s": s, "m": m, "n": n,
                    "max_weight": max_weight, "p_bound": p_bound},
    )
    dec = central_decompose(r, s, m, n, max_weight, regularized=False)
    if not dec.ok:
        rep.add_cell("fit-residual", "NONZERO", "0", FAIL)
        return rep
    if not dec.unique:
        rep.add_uncertified("fit-unique")
        return rep
    rep.data["cocycle_value"] = rat_str(dec.scalar_part)
    rep.data["operator_part"] = [rat_str(c) for c in dec.operator_part]

    # the operator part on the int t^p, summed over d = lcm(den c_j)
    d = lcm(*(c.denominator for c in dec.operator_part))
    ops = [(j, c.numerator * (d // c.denominator))
           for j, c in enumerate(dec.operator_part) if c]
    for p in range(-p_bound, p_bound + 1):
        k = p + m + n
        lhs = Fraction(sum(c * _diff_op_coeff(j, m + n, p) for j, c in ops), d)
        rhs = (_diff_op_coeff(r, m, p + n) * _diff_op_coeff(s, n, p)
               - _diff_op_coeff(s, n, p + m) * _diff_op_coeff(r, m, p))
        rep.add_cell(f"t^{p}", _laurent_str(lhs, k), _laurent_str(rhs, k))
    return rep
