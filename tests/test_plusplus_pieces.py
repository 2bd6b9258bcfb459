"""The ++ pole sums of the generating-function identity on packed int
keys, against the Fraction route they replaced.

``fockcalc.series._plusplus_pieces`` sums the product H(lam) e^{n(f-g)}
and the step lam d_outer P - 2 c P on y-cells packed into one int each
(one digit per variable, base ydeg + 4).  ``series_reference.
plusplus_pieces`` builds the same sums cell by cell on exponent tuples
from Fraction series.  Every piece must agree in pole, order and body,
cell for cell, at the scales the closed form of the correction is
checked at and at every window up to 6 for ydeg <= 2.

Each opposite-pole pair sums to a polynomial over lam^3 (1/4 E F_n(lam)
with F_n a polynomial in e^lam), so at every one of these scales each
nonempty pole sum must take the exact-division path of ``expand``, and
the correction must equal the binomial expansion of the same sums.
"""

from fractions import Fraction as F
from types import MappingProxyType

import pytest

from fockcalc.series import (NEG_POWERS_Y1, NEG_POWERS_Y2, _exp_cells,
                             _genfun_floor, _plusplus_correction,
                             _plusplus_pieces)
from series_reference import exp_cells_by_recursion, plusplus_pieces
from test_expand_property import expand_with_spy, tuple_loop_expand

SCALES = sorted({(2, 0), (3, 1), (2, 2), (5, 2), (3, 3), (4, 4), (6, 2)}
                | {(w, d) for w in range(7) for d in range(3)})


@pytest.mark.parametrize("window,ydeg", SCALES)
def test_pieces_match_fraction_reference(window, ydeg):
    got = _plusplus_pieces(window, ydeg)
    want = plusplus_pieces(window, ydeg)
    assert [n for n, _ in got] == [n for n, _ in want] == list(
        range(-window, window + 1))
    for (n, locs), (_, refs) in zip(got, want):
        assert len(locs) == len(refs) == 2, n
        for loc, ref in zip(locs, refs):
            # the same pole form, with its variables in the same order
            assert list(loc.pole.items()) == list(ref.pole.items()), n
            assert loc.order == ref.order == 3
            body, rbody = loc.body, ref.body
            assert dict(body.terms) == dict(rbody.terms), n
            assert all(type(x) is F and x for x in body.terms.values())
            assert type(body.terms) is MappingProxyType
            assert body.varspecs == rbody.varspecs
            assert body.tcap == rbody.tcap == ydeg + 3
            assert body.x_ival == rbody.x_ival
            assert body.neg_floor == rbody.neg_floor == {}


@pytest.mark.parametrize("window,ydeg", SCALES)
def test_pole_sums_divide_and_match_the_binomial_route(window, ydeg):
    floor = _genfun_floor(ydeg)
    for conv in (NEG_POWERS_Y1, NEG_POWERS_Y2):
        pieces = _plusplus_pieces(window, ydeg)
        for (n, ser), (_, locs) in zip(_plusplus_correction(conv, window,
                                                            ydeg), pieces):
            want = None
            for loc in locs:
                got, runs = expand_with_spy(loc, conv, floor)
                if loc.body.terms:
                    assert len(runs) == 1 and runs[0] is not None, n
                part = tuple_loop_expand(loc, conv, floor)
                assert got.terms == part.terms, n
                want = part if want is None else want.add(part)
            assert dict(ser.terms) == want.terms, n
            assert (ser.tcap, ser.neg_floor, ser.x_ival) == (
                want.tcap, want.neg_floor, want.x_ival)


def test_pieces_reach_the_digit_bound():
    # cells of total degree ydeg + 3 with one exponent at that degree:
    # the largest digit the packing holds, so a base one smaller carries
    for window, ydeg in ((2, 0), (2, 1), (2, 2)):
        top = ydeg + 3
        cells = {cell for _, locs in _plusplus_pieces(window, ydeg)
                 for loc in locs for cell in loc.body.terms}
        assert max(max(cell[:4]) for cell in cells) == top
        assert all(sum(cell[:4]) <= top for cell in cells)


@pytest.mark.parametrize("tcap", range(8))
def test_exp_cells_match_recursion(tcap):
    for coeffs in ((0, 0, 0, 0), (1, 0, -1, 0), (0, 3, 0, -3), (-2, 0, 0, 2),
                   (1, 2, 3), (5,), (0, -1), ()):
        got = _exp_cells(coeffs, tcap)
        assert got == exp_cells_by_recursion(coeffs, tcap)
        assert all(type(x) is F for _, x in got)
