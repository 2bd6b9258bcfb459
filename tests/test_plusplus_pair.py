"""The closed form of the ++ pair against the pole-calculus route.

``fockcalc.series.plusplus_pair`` subtracts S v from the colon product
on the x^0 cells, S = d/dy1 [1/(1 - e^{-(y1-y2)})] written out from the
Bernoulli coefficients: -sum_m (m + 1) y_o^m y_d^{-m-2} for the pole and
a binomial sum for each (k - 1) g_k (y1 - y2)^{k-2}.
``series_reference.plusplus_pair_by_expansion`` builds the same series
as the derivative of the localized pole 1/(1 - e^{-u}), expanded by the
binomial loop.  The two must agree cell for cell, with the same
certified region, for every monomial of weight <= 5, at orders 1-8,
under both conventions.
"""

from fractions import Fraction as F

import pytest

from fockcalc.exact import UsageError
from fockcalc.fock import FockVector, basis
from fockcalc.series import (NEG_POWERS_Y1, NEG_POWERS_Y2,
                             ExpansionConvention, plusplus_pair)
from series_reference import plusplus_pair_by_expansion

WINDOW = (-2, 2)


@pytest.mark.parametrize("conv", [NEG_POWERS_Y1, NEG_POWERS_Y2],
                         ids=["y1", "y2"])
@pytest.mark.parametrize("order", range(1, 9))
def test_closed_form_matches_the_pole_calculus(order, conv):
    for mon in basis(5):
        v = FockVector({mon: F(1)})
        got = plusplus_pair("y1", "y2", "x", v, WINDOW, order, conv)
        want = plusplus_pair_by_expansion("y1", "y2", "x", v, WINDOW, order,
                                          conv)
        assert got.terms == want.terms, mon
        assert got.varspecs == want.varspecs
        assert got.x_ival == want.x_ival
        assert got.tcap == want.tcap == order
        assert got.neg_floor == want.neg_floor == {
            conv.distinguished: -(2 + order)}


@pytest.mark.parametrize("window", [(1, 3), (-3, -1), (0, 0)])
def test_correction_only_where_the_window_holds_x0(window):
    v = FockVector({(2,): F(1)})
    got = plusplus_pair("y1", "y2", "x", v, window, 3, NEG_POWERS_Y2)
    want = plusplus_pair_by_expansion("y1", "y2", "x", v, window, 3,
                                      NEG_POWERS_Y2)
    assert got.terms == want.terms
    assert got.x_ival == want.x_ival == {"x": window}


def test_zero_vector_gets_no_correction():
    got = plusplus_pair("y1", "y2", "x", FockVector(), WINDOW, 4)
    assert got.terms == {}
    assert got.neg_floor == {"y1": -6}


def test_convention_must_distinguish_a_slot():
    v = FockVector({(1,): F(1)})
    with pytest.raises(UsageError, match="distinguish one of the pair"):
        plusplus_pair("y1", "y2", "x", v, WINDOW, 4, ExpansionConvention("y3"))
