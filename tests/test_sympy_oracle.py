"""sympy as an independent oracle for the number-theoretic tables and the
closed form of the differential operators."""

from fractions import Fraction as F

import pytest

from fockcalc.exact import bernoulli, graded_dimension, zeta_nonpositive
from fockcalc.quadratic import _diff_op_coeff

sympy = pytest.importorskip("sympy")


def _frac(q) -> F:
    q = sympy.Rational(q)
    return F(int(q.p), int(q.q))


def test_bernoulli_matches_sympy():
    # sympy >= 1.12 takes B_1 = +1/2; fockcalc's x/(e^x - 1) gives -1/2,
    # and every other index agrees
    for k in range(31):
        want = _frac(sympy.bernoulli(k))
        if k == 1:
            want = -want
        assert bernoulli(k) == want, k
    assert bernoulli(1) == F(-1, 2)


def test_zeta_at_nonpositive_integers_matches_sympy():
    for n in range(21):
        assert zeta_nonpositive(n) == _frac(sympy.zeta(-n)), n


def test_graded_dimension_counts_partitions():
    series = graded_dimension(50)
    for n in range(51):
        assert series.coeff(n) == int(sympy.partition(n)), n


def test_diff_op_closed_form_matches_sympy():
    # (-1)^{r+1} D^r (t^n D) D^r on t^p, D = t d/dt, for symbolic n and p
    t, n, p = sympy.symbols("t n p")

    def d(f):
        return sympy.expand(t * sympy.diff(f, t))

    for r in range(5):
        f = t ** p
        for _ in range(r):
            f = d(f)
        f = t ** n * d(f)
        for _ in range(r):
            f = d(f)
        coeff = sympy.powsimp(sympy.expand((-1) ** (r + 1) * f / t ** (p + n)))
        assert sympy.expand(coeff - _diff_op_coeff(r, n, p)) == 0, r
