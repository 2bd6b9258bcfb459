"""sympy as an independent oracle for the number-theoretic tables."""

from fractions import Fraction as F

import pytest

from fockcalc.exact import bernoulli, graded_dimension, zeta_nonpositive

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
