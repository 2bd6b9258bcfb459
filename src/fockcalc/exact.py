"""Exact rational arithmetic kernels.

The coefficient field everywhere in this package is the rationals,
represented by ``fractions.Fraction`` (arbitrary precision, always in
lowest terms, positive denominator).  This module adds:

* truncated univariate power series over Fraction,
* Bernoulli numbers (convention fixed by x/(e^x - 1), so B_1 = -1/2),
* zeta values at nonpositive integers,
* the partition generating function and its eta-shifted form.

Truncation discipline: every binary series operation carries the minimum
truncation order of its inputs, and reading a coefficient beyond the
truncation order raises ``SeriesError`` instead of silently returning 0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

ZERO = Fraction(0)
ONE = Fraction(1)


class UsageError(ValueError):
    """A precondition that the code names itself failed: a bad argument,
    not a wrong result.  The command line exits 2 on it."""


class SeriesError(UsageError):
    """Invalid series operation (bad precondition or uncertified read)."""


def rat_str(q) -> str:
    """Serialize an int or Fraction as ``p`` or ``p/q`` (q > 1), e.g.
    ``-1/12``.  Anything else, a float in particular, is a TypeError."""
    try:
        num, den = q.numerator, q.denominator
    except AttributeError:
        raise TypeError(f"rat_str takes an int or a Fraction, "
                        f"not {type(q).__name__}") from None
    if den == 1:
        return str(num)
    return f"{num}/{den}"


# Private on purpose: the benchmark tracer times every public function, and
# this is the hottest call in the package.
def _add_into(terms: dict, key, val) -> None:
    """terms[key] += val in place, dropping the key when the sum is zero.

    An absent key takes val itself, which must be nonzero.  The stored
    value is replaced, never mutated, since value objects are shared.
    """
    old = terms.get(key)
    if old is None:
        terms[key] = val
    else:
        val = old + val
        if val:
            terms[key] = val
        else:
            del terms[key]


def _divide_out(cells, d: int, c: int, mu: dict, k: int):
    """The quotient of sum x y^cell ((exponent tuple, int x) pairs) by
    lam^k, lam = c y_d + sum_j mu[j] y_j, as a dict; None if c does not
    divide a pivot or a remainder is left.  Synthetic division in y_d,
    highest exponent first; what is left at exponent <= 0 is remainder."""
    for _ in range(k):
        levels, quot = {}, {}
        for cell, x in cells:
            levels.setdefault(cell[d], {})[cell] = x
        for e in range(max(levels), min(min(levels), 0) - 1, -1):
            for cell, x in levels.get(e, {}).items():
                if x:
                    q, r = divmod(x, c)
                    if r or e <= 0:
                        return None
                    cell = cell[:d] + (e - 1,) + cell[d + 1:]
                    quot[cell] = q
                    below = levels.setdefault(e - 1, {})
                    for j, m in mu.items():
                        t = cell[:j] + (cell[j] + 1,) + cell[j + 1:]
                        below[t] = below.get(t, 0) - m * q
        cells = quot.items()
    return quot


class PowerSeries:
    """Truncated power series sum_{0 <= n <= order} c_n x^n over Fraction.

    Coefficients are stored sparsely; absent exponents are zero.  All
    arithmetic is exact through the carried truncation order.  Only the
    operations some command uses are here; results take the class of
    self, so a subclass with more operations keeps them.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs=None, order=0):
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        self.order = order
        self.coeffs = {}
        if coeffs:
            for n, c in coeffs.items():
                if n < 0:
                    raise SeriesError("power series exponents must be >= 0")
                if n > order:
                    raise SeriesError(f"exponent {n} exceeds truncation order {order}")
                c = Fraction(c)
                if c:
                    self.coeffs[n] = c

    @classmethod
    def one(cls, order):
        return cls({0: ONE}, order)

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            return ZERO
        if n > self.order:
            raise SeriesError(
                f"coefficient of x^{n} requested beyond truncation order {self.order}")
        return self.coeffs.get(n, ZERO)

    def constant_term(self) -> Fraction:
        return self.coeffs.get(0, ZERO)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, tuple(sorted(self.coeffs.items()))))

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = {}
        for i, a in self.coeffs.items():
            if i > order:
                continue
            for j, b in other.coeffs.items():
                if i + j <= order:
                    _add_into(out, i + j, a * b)
        return type(self)(out, order)

    def div(self, other: "PowerSeries") -> "PowerSeries":
        """Exact long division; requires a unit constant term in the divisor."""
        b0 = other.constant_term()
        if not b0:
            raise SeriesError("division by a series with zero constant term")
        order = min(self.order, other.order)
        out = {}
        for n in range(order + 1):
            acc = self.coeffs.get(n, ZERO)
            for k, ck in out.items():
                acc -= ck * other.coeffs.get(n - k, ZERO)
            c = acc / b0
            if c:
                out[n] = c
        return type(self)(out, order)

    def inverse(self) -> "PowerSeries":
        return type(self).one(self.order).div(self)

    def pow_int(self, k: int) -> "PowerSeries":
        """Integer power; negative k inverts (unit constant term required)."""
        if k < 0:
            return self.inverse().pow_int(-k)
        result = type(self).one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def to_pairs(self):
        """JSON form: sorted [exponent, "p/q"] pairs."""
        return [[n, rat_str(c)] for n, c in sorted(self.coeffs.items())]

    def __repr__(self):
        terms = " + ".join(f"{rat_str(c)}*x^{n}" for n, c in sorted(self.coeffs.items()))
        return f"PowerSeries({terms or '0'}; order {self.order})"


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta at nonpositive integers
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE = [ONE]


def bernoulli(k: int) -> Fraction:
    """B_k in the x/(e^x - 1) convention (B_1 = -1/2).

    Computed by the classical recurrence sum_{j<m} C(m+1, j) B_j = -... ,
    i.e. B_m = -1/(m+1) * sum_{j=0}^{m-1} C(m+1, j) B_j, which pins the
    same values as the generating-function division (the tests cross-check
    both routes).
    """
    if k < 0:
        raise UsageError("Bernoulli index must be >= 0")
    while len(_BERNOULLI_CACHE) <= k:
        m = len(_BERNOULLI_CACHE)
        acc = ZERO
        for j in range(m):
            acc += comb(m + 1, j) * _BERNOULLI_CACHE[j]
        _BERNOULLI_CACHE.append(-acc / (m + 1))
    return _BERNOULLI_CACHE[k]


def zeta_nonpositive(n: int) -> Fraction:
    """zeta(-n) for n >= 0.

    zeta(-n) = -B_{n+1}/(n+1) for n >= 1; zeta(0) is the special case
    -B_1 - 1 = -1/2.
    """
    if n < 0:
        raise UsageError("argument must be >= 0 (value requested is zeta(-n))")
    if n == 0:
        return -bernoulli(1) - 1
    return -bernoulli(n + 1) / (n + 1)


# ---------------------------------------------------------------------------
# Partition generating function and the eta-shifted graded dimension
# ---------------------------------------------------------------------------

def graded_dimension(max_n: int) -> PowerSeries:
    """prod_{n>0} (1 - q^n)^{-1} through q^max_n.

    The coefficient of q^n is the number of partitions of n, which is the
    dimension of the weight-n subspace of the Fock space.  Counted in ints:
    a factor (1 - q^part)^{-1} adds to each count the count part below it.
    """
    if max_n < 0:
        raise UsageError("max_n must be >= 0")
    counts = [1] + [0] * max_n
    for part in range(1, max_n + 1):
        for k in range(part, max_n + 1):
            counts[k] += counts[k - part]
    return PowerSeries(dict(enumerate(counts)), max_n)


class ShiftedQSeries(namedtuple("ShiftedQSeries", "shift series")):
    """q^shift times an ordinary power series in q; shift is rational."""

    __slots__ = ()

    def to_json_dict(self):
        return {"shift": rat_str(self.shift), "series": self.series.to_pairs()}


def chi_s(max_n: int) -> ShiftedQSeries:
    """Graded dimension in the regularized grading: q^{-1/24} / prod (1-q^n).

    This is 1/eta(q); the -1/24 offset is the vacuum eigenvalue shift of
    the regularized degree operator.
    """
    return ShiftedQSeries(Fraction(-1, 24), graded_dimension(max_n))
