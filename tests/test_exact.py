"""Tests for the exact arithmetic kernels."""

from fractions import Fraction as F

import pytest

from fockcalc.exact import (SeriesError, ShiftedQSeries, bernoulli, chi_s,
                            graded_dimension, rat_str, zeta_nonpositive)
from fockcalc import exact
from fockcalc.exact import _add_into
from fockcalc.fock import partitions_of
from series_reference import (PowerSeries, bernoulli_series,
                              check_geometric_bernoulli, exp_x)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def bernoulli_oracle(n):
    """Akiyama-Tanigawa triangle; independent of the package recurrence."""
    a = [F(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    # the triangle yields B_1 = +1/2; flip to the x/(e^x-1) convention
    return -a[0] if n == 1 else a[0]


def partition_count_oracle(n, max_part=None):
    """Recursive partition counting p(n, k) = p(n-k, k) + p(n, k-1)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return (partition_count_oracle(n - max_part, max_part)
            + partition_count_oracle(n, max_part - 1))


# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------

def test_rat_str_roundtrip():
    for q in [F(-1, 12), F(0), F(3), F(7, 2), F(-5)]:
        assert F(rat_str(q)) == q
    assert rat_str(F(-1, 12)) == "-1/12"
    assert rat_str(F(4, 2)) == "2"


def test_rat_str_takes_int_or_fraction_only():
    assert rat_str(3) == "3"
    assert rat_str(-7) == "-7"
    # a float used to print its binary expansion as a fraction
    with pytest.raises(TypeError):
        rat_str(0.1)
    with pytest.raises(TypeError):
        rat_str("1/2")


def test_add_into_replaces_values_and_drops_zeros():
    half = F(1, 2)
    terms = {}
    _add_into(terms, "a", half)
    assert terms["a"] is half          # an absent key takes the value itself
    _add_into(terms, "a", F(1, 3))
    assert terms == {"a": F(5, 6)} and half == F(1, 2)
    _add_into(terms, "a", F(-5, 6))
    assert terms == {}


# ---------------------------------------------------------------------------
# power series arithmetic
# ---------------------------------------------------------------------------

def test_difference_of_squares():
    one_plus = PowerSeries({0: 1, 1: 1}, 4)
    one_minus = PowerSeries({0: 1, 1: -1}, 4)
    prod = one_plus * one_minus
    assert prod == PowerSeries({0: 1, 2: -1}, 4)


def test_bernoulli_generating_division():
    # x / (e^x - 1) at order 4, by long division against e^x - 1
    ser = bernoulli_series(4)
    assert ser.coeff(0) == 1
    assert ser.coeff(1) == F(-1, 2)
    assert ser.coeff(2) == F(1, 12)
    assert ser.coeff(3) == 0
    assert ser.coeff(4) == F(-1, 720)


def test_compose_geometric():
    geom = PowerSeries({k: 1 for k in range(7)}, 6)      # 1/(1-u)
    xsq = PowerSeries({2: 1}, 6)
    out = geom.compose(xsq)
    assert out == PowerSeries({0: 1, 2: 1, 4: 1, 6: 1}, 6)


def test_division_preconditions():
    with pytest.raises(SeriesError):
        PowerSeries({0: 1}, 3).div(PowerSeries({1: 1}, 3))
    with pytest.raises(SeriesError):
        PowerSeries({0: 1}, 3).compose(PowerSeries({0: 1}, 3))


def test_truncation_is_enforced():
    ser = PowerSeries({0: 1, 1: 1}, 2)
    with pytest.raises(SeriesError):
        ser.coeff(3)
    assert (ser * PowerSeries({0: 1}, 1)).order == 1


def test_exp_log_examples():
    zero = PowerSeries.zero(5)
    assert zero.exp() == PowerSeries.one(5)
    # log(1-x) = -x - x^2/2 - x^3/3: oracle is term-wise integration of
    # the derivative -1/(1-x) = -(1 + x + x^2 + ...)
    one_minus_x = PowerSeries({0: 1, 1: -1}, 3)
    expected = PowerSeries({k: F(-1, k) for k in range(1, 4)}, 3)
    assert one_minus_x.log() == expected
    # exp(log(1+x)) = 1 + x
    one_plus_x = PowerSeries({0: 1, 1: 1}, 6)
    assert one_plus_x.log().exp() == one_plus_x


def test_exp_log_mutually_inverse():
    ser = PowerSeries({1: F(1, 2), 2: F(-2, 3), 3: 1, 5: F(7, 4)}, 8)
    assert ser.exp().log() == ser
    unit = PowerSeries({0: 1, 1: 3, 2: F(1, 5), 4: -2}, 8)
    assert unit.log().exp() == unit


def test_exp_log_preconditions():
    with pytest.raises(SeriesError):
        PowerSeries({0: 1}, 3).exp()
    with pytest.raises(SeriesError):
        PowerSeries({0: 2}, 3).log()


def test_inverse_and_pow():
    ser = PowerSeries({0: 1, 1: -1}, 6)      # 1 - x
    geom = ser.inverse()
    assert geom == PowerSeries({k: 1 for k in range(7)}, 6)
    assert ser.pow_int(-2) == geom * geom
    assert exp_x(4).coeff(3) == F(1, 6)


# ---------------------------------------------------------------------------
# Bernoulli / zeta values
# ---------------------------------------------------------------------------

def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == F(-1, 30)


def test_bernoulli_against_independent_oracle():
    for k in range(30):
        assert bernoulli(k) == bernoulli_oracle(k)


def test_bernoulli_matches_generating_function():
    ser = bernoulli_series(20)
    fact = 1
    for k in range(21):
        if k:
            fact *= k
        assert ser.coeff(k) * fact == bernoulli(k)


def test_odd_bernoulli_vanish():
    for k in range(1, 12):
        assert bernoulli(2 * k + 1) == 0


def test_zeta_values():
    assert zeta_nonpositive(0) == F(-1, 2)
    assert zeta_nonpositive(1) == F(-1, 12)
    assert zeta_nonpositive(2) == 0
    assert zeta_nonpositive(3) == F(1, 120)
    assert zeta_nonpositive(5) == F(-1, 252)
    for k in range(1, 10):
        assert zeta_nonpositive(2 * k) == 0


def test_geometric_bernoulli_report():
    rep = check_geometric_bernoulli(8)
    assert rep.passed
    by_key = {c.key: c for c in rep.cells}
    assert by_key["x^-1"].lhs == "-1"
    assert by_key["x^0"].lhs == "1/2"


# ---------------------------------------------------------------------------
# q-series
# ---------------------------------------------------------------------------

def test_graded_dimension_small():
    ser = graded_dimension(6)
    assert [ser.coeff(n) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_graded_dimension_against_partition_oracle():
    ser = graded_dimension(40)
    for n in range(41):
        assert ser.coeff(n) == partition_count_oracle(n)


def graded_dimension_by_products(max_n):
    """prod_{n=1}^{max_n} (1 + q^n + q^2n + ...), one PowerSeries product
    of Fractions per factor: the construction the int recurrence
    replaced."""
    result = exact.PowerSeries.one(max_n)
    for n in range(1, max_n + 1):
        result = result * exact.PowerSeries(
            {j * n: 1 for j in range(max_n // n + 1)}, max_n)
    return result


def test_graded_dimension_matches_the_product_form():
    for max_n in range(61):
        got = graded_dimension(max_n)
        want = graded_dimension_by_products(max_n)
        assert type(got) is exact.PowerSeries
        assert got == want and got.order == want.order == max_n
        assert got.to_pairs() == want.to_pairs()
        assert all(type(c) is F for c in got.coeffs.values())
    ser = graded_dimension(15)
    for n in range(16):
        assert ser.coeff(n) == len(partitions_of(n))


def test_chi_shift_and_series():
    chi = chi_s(5)
    assert chi.shift == F(-1, 24)
    assert chi.series.coeff(0) == 1
    assert chi.series.coeff(5) == 7
    assert isinstance(chi, ShiftedQSeries)
    data = chi.to_json_dict()
    assert data["shift"] == "-1/24"


def test_series_json_pairs():
    ser = PowerSeries({0: 1, 2: F(-1, 3)}, 4)
    assert ser.to_pairs() == [[0, "1"], [2, "-1/3"]]
