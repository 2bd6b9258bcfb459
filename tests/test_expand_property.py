"""Property tests: LocalizedSeries.expand against a generate-then-filter
reference, and the sum of two series with opposite poles against the sum
of their expansions.

The reference below is the direct reading of the expansion formula
lambda^{-k} = sum_i C(-k,i) (c_d y_d)^{-k-i} mu^i: it forms every product
of a body cell with a mu^i cell for i up to the certification bound and
only then discards the cells outside the certified region.  A second
reference is the Fraction form of the expansion loop, which divides by
c_d^(k+i) at step i; ``expand`` sums in ints instead, scaling step i by
c_d^(imax-i), and the pole coefficients drawn (c_d in +-1, +-2, +-3)
exercise that scaling.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc.series import (NEG_POWERS_Y1, NEG_POWERS_Y2, LocalizedSeries,
                             MultiSeries, comb_int, trunc_var, window_var)

VARSPECS = (trunc_var("y1"), trunc_var("y2"), trunc_var("y3"),
            window_var("x", -3, 3))


def reference_expand(loc, conv, dvar_floor):
    dvar = conv.distinguished
    c_d = loc.pole[dvar]
    body, k = loc.body, loc.order
    tcap = body.tcap - k
    di = body.pos(dvar)
    mu = {n: c for n, c in loc.pole.items() if n != dvar}
    complete = {n: (None, None) for n in body.window_names()}
    out = MultiSeries(body.varspecs, {}, complete, tcap, {dvar: dvar_floor})
    terms = {}
    mu_power = {(0,) * len(body.varspecs): F(1)}
    for i in range(max(body.tcap - k - dvar_floor, 0) + 1):
        c_i = F(comb_int(-k, i), c_d ** (k + i))
        for mcell, mval in mu_power.items():
            for bcell, bval in body.terms.items():
                cell = [x + y for x, y in zip(mcell, bcell)]
                cell[di] -= k + i
                cell = tuple(cell)
                if cell[di] < dvar_floor or out.tdeg(cell) > tcap:
                    continue
                terms[cell] = terms.get(cell, 0) + bval * c_i * mval
        nxt = {}
        for mcell, mval in mu_power.items():
            for name, c in mu.items():
                j = body.pos(name)
                new = mcell[:j] + (mcell[j] + 1,) + mcell[j + 1:]
                nxt[new] = nxt.get(new, 0) + mval * c
        mu_power = {c: v for c, v in nxt.items() if v}
    out.terms = {c: v for c, v in terms.items() if v}
    return out


def fraction_loop_expand(loc, conv, dvar_floor):
    # the Fraction form of the expansion loop: step i divides by
    # c_d^(k+i) and every product is a Fraction
    dvar = conv.distinguished
    c_d = loc.pole[dvar]
    body, k = loc.body, loc.order
    di = body.pos(dvar)
    mu = {body.pos(n): c for n, c in loc.pole.items() if n != dvar}
    complete = {n: (None, None) for n in body.window_names()}
    out = MultiSeries(body.varspecs, {}, complete, body.tcap - k,
                      {dvar: dvar_floor})
    cells = sorted(((b, val) for b, val in body.terms.items()
                    if body.tdeg(b) <= body.tcap),
                   key=lambda item: -item[0][di])
    mu_power = {(0,) * len(body.varspecs): F(1)}
    for i in range(max(body.tcap - k - dvar_floor, 0) + 1):
        while cells and cells[-1][0][di] < dvar_floor + k + i:
            cells.pop()
        if not cells:
            break
        c_i = F(comb_int(-k, i), c_d ** (k + i))
        for mcell, mval in mu_power.items():
            for bcell, bval in cells:
                cell = [x + y for x, y in zip(mcell, bcell)]
                cell[di] -= k + i
                cell = tuple(cell)
                out.terms[cell] = out.terms.get(cell, 0) + bval * c_i * mval
        if not mu:
            break
        nxt = {}
        for mcell, mval in mu_power.items():
            for j, c in mu.items():
                new = mcell[:j] + (mcell[j] + 1,) + mcell[j + 1:]
                nxt[new] = nxt.get(new, 0) + mval * c
        mu_power = nxt
    out.terms = {c: v for c, v in out.terms.items() if v}
    return out


@st.composite
def scalar_bodies(draw):
    tcap = draw(st.integers(0, 4))
    # some body cells lie above tcap, so the reference has to discard them
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                     st.integers(-2, 2))
    terms = draw(st.dictionaries(
        cell, st.fractions(min_value=-4, max_value=4, max_denominator=6)
        .filter(bool), max_size=8))
    return MultiSeries(VARSPECS, terms, {"x": (None, None)}, tcap)


@st.composite
def localized_series(draw):
    conv = draw(st.sampled_from((NEG_POWERS_Y1, NEG_POWERS_Y2)))
    coef = st.integers(-3, 3)
    pole = {"y1": draw(coef), "y2": draw(coef), "y3": draw(coef)}
    pole[conv.distinguished] = draw(coef.filter(bool))
    loc = LocalizedSeries(pole, draw(st.integers(1, 3)), draw(scalar_bodies()))
    return loc, conv, draw(st.integers(-6, 1))


@settings(max_examples=300, deadline=None)
@given(localized_series())
def test_expand_matches_generate_then_filter(case):
    loc, conv, dvar_floor = case
    got = loc.expand(conv, dvar_floor)
    want = reference_expand(loc, conv, dvar_floor)
    assert got.terms == want.terms
    assert got.terms == fraction_loop_expand(loc, conv, dvar_floor).terms
    assert all(type(c) is F for c in got.terms.values())
    assert got.tcap == want.tcap
    assert got.neg_floor == want.neg_floor
    assert got.x_ival == want.x_ival


@settings(max_examples=200, deadline=None)
@given(localized_series(), st.integers(1, 3), scalar_bodies())
def test_add_of_opposite_poles_commutes_with_expand(case, order, body):
    # body/(-lambda)^k is (-1)^k body/lambda^k, and expansion is linear
    a, conv, dvar_floor = case
    b = LocalizedSeries({n: -c for n, c in a.pole.items()}, order, body)
    got = a.add(b).expand(conv, dvar_floor)
    want = a.expand(conv, dvar_floor).add(b.expand(conv, dvar_floor))
    assert got.terms == want.terms
    assert got.tcap == want.tcap
    assert got.neg_floor == want.neg_floor
    assert got.x_ival == want.x_ival


def test_add_rejects_unrelated_poles():
    body = MultiSeries(VARSPECS, {(0, 0, 0, 0): F(1)}, None, 2)
    a = LocalizedSeries({"y1": 1, "y2": -1}, 1, body)
    for pole in ({"y1": 1, "y2": 1}, {"y1": 2, "y2": -2}, {"y1": -1},
                 {"y1": -1, "y2": 1, "y3": 1}):
        with pytest.raises(ValueError):
            a.add(LocalizedSeries(pole, 1, body))


def test_expand_rejects_pole_in_window_variable():
    body = MultiSeries(VARSPECS, {(0, 0, 0, 0): F(1)}, None, 2)
    loc = LocalizedSeries({"y1": 1, "x": 1}, 1, body)
    with pytest.raises(ValueError):
        loc.expand(NEG_POWERS_Y1, -2)
