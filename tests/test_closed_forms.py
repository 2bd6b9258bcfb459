"""Closed-form oracles for the central terms of the quadratic families.

With k = r + s, the lattice sum behind the unregularized central term of
[L^(r)(m), L^(s)(-m)] is (1/2) sum_{j=1}^{m-1} (j(m-j))^{k+1}, and its
negative at -m.  Zeta regularization turns it into the integral
(1/2) int_0^m (x(m-x))^{k+1} dx = (1/2) B(k+2, k+2) m^{2k+3}, so the
regularized central term is the pure monomial with coefficient
(k+1)!^2 / (2 (2k+3)!) (Bloch, Zeta values and differential operators on
the circle, J. Algebra 1996).  Each value here is computed from these
formulas, once in Fractions and once through ``sympy``, never from the
package's own fit.
"""

from fractions import Fraction as F
from math import factorial

import pytest

from fockcalc.exact import rat_str
from fockcalc.quadratic import (central_decompose, verify_diff_op_projection,
                                verify_monomial_purity)

sympy = pytest.importorskip("sympy")

PAIRS_K4 = [(r, k - r) for k in range(5) for r in range(k + 1)]
PAIRS_2 = [(r, s) for r in range(3) for s in range(3)]


def lattice_scalar(k, m):
    """(1/2) sum_{j=1}^{|m|-1} (j(|m|-j))^{k+1}, with the sign of m."""
    n = abs(m)
    total = F(sum((j * (n - j)) ** (k + 1) for j in range(1, n)), 2)
    return total if m >= 0 else -total


@pytest.fixture(scope="module")
def lattice_polynomials():
    """The lattice sum for m >= 1 as a sympy polynomial in m, per k."""
    j, m = sympy.symbols("j m", integer=True, positive=True)
    return m, {k: sympy.expand(sympy.summation(
        (j * (m - j)) ** (k + 1), (j, 1, m - 1)) / 2) for k in range(5)}


def test_purity_coefficient_is_half_the_beta_integral():
    x = sympy.Symbol("x")
    for k in range(5):
        integral = sympy.integrate((x * (1 - x)) ** (k + 1), (x, 0, 1)) / 2
        assert F(str(integral)) == F(factorial(k + 1) ** 2,
                                     2 * factorial(2 * k + 3))


@pytest.mark.parametrize("r, s", PAIRS_K4)
def test_regularized_central_term_is_bloch_monomial(r, s):
    k = r + s
    rep = verify_monomial_purity(r, s, max(6, 2 * k + 4), 6)
    assert rep.passed
    assert rep.data["monomial_exponent"] == 2 * k + 3
    assert rep.data["monomial_coefficient"] == rat_str(
        F(factorial(k + 1) ** 2, 2 * factorial(2 * k + 3)))


@pytest.mark.parametrize("r, s", PAIRS_2)
def test_unregularized_scalar_is_the_lattice_sum(r, s, lattice_polynomials):
    k = r + s
    m_sym, polys = lattice_polynomials
    for m in range(-5, 6):
        want = lattice_scalar(k, m)
        if m > 0:
            assert F(str(polys[k].subs(m_sym, m))) == want
        dec = central_decompose(r, s, m, -m, max(6, abs(m) + 1),
                                regularized=False)
        assert dec.ok and dec.unique
        assert dec.scalar_part == want, m


@pytest.mark.parametrize("r, s", [(r, s) for r, s in PAIRS_2 if r + s <= 2])
def test_diffop_cocycle_is_the_lattice_sum_on_the_diagonal(r, s):
    for m in range(-3, 4):
        for n in (-m, 1 - m, 2 - m):
            rep = verify_diff_op_projection(r, s, m, n, 6, 2)
            assert rep.passed
            want = lattice_scalar(r + s, m) if m + n == 0 else 0
            assert rep.data["cocycle_value"] == rat_str(want), (m, n)
