"""Property tests: LocalizedSeries.expand, which keeps only exact
division, against the binomial expansion, and the sum of two series with
opposite poles against the sum of their expansions.

The binomial references live in ``series_reference``.
``reference_expand`` is the direct reading of the expansion formula
lambda^{-k} = sum_i C(-k,i) (c_d y_d)^{-k-i} mu^i: it forms every product
of a body cell with a mu^i cell for i up to the certification bound and
only then discards the cells outside the certified region.
``tuple_loop_expand`` is the int loop over exponent tuples, which scales
step i by c_d^(imax-i) instead of dividing by c_d^(k+i); the Fraction
form of that loop is below.  The pole coefficients drawn (c_d in +-1,
+-2, +-3) exercise that scaling, and the strategy draws window exponents
in -6..6 beside trunc exponents in 0..3, single-cell bodies and floors
down to -12.

Where lambda^k divides the body, ``expand`` returns the quotient found by
synthetic division (``exact._divide_out``); where a remainder is left it
raises a plain ValueError.  Random bodies almost never divide: there the
three references must agree and ``expand`` must raise.  Bodies built as
lambda^k Q check the quotient against Q itself and the three references,
with a spy on the division to show that it ran.  The quotient lists its
cells by descending distinguished exponent.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockcalc.exact import UsageError
from fockcalc.series import (NEG_POWERS_Y1, NEG_POWERS_Y2, LocalizedSeries,
                             MultiSeries, comb_int, trunc_var, window_var)
from series_reference import (expand_or_raise, expand_with_spy,
                              localized_add, reference_expand,
                              tuple_loop_expand)

VARSPECS = (trunc_var("y1"), trunc_var("y2"), trunc_var("y3"),
            window_var("x", -6, 6))


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
    # some body cells lie above tcap, so the reference has to discard
    # them; the window exponent may be negative, and a one-cell body
    # gives each exponent a range of one value
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                     st.integers(-6, 6))
    terms = draw(st.dictionaries(
        cell, st.fractions(min_value=-4, max_value=4, max_denominator=6)
        .filter(bool), max_size=draw(st.sampled_from((1, 8)))))
    return MultiSeries(VARSPECS, terms, {"x": (None, None)}, tcap)


@st.composite
def localized_series(draw):
    conv = draw(st.sampled_from((NEG_POWERS_Y1, NEG_POWERS_Y2)))
    coef = st.integers(-3, 3)
    pole = {"y1": draw(coef), "y2": draw(coef), "y3": draw(coef)}
    pole[conv.distinguished] = draw(coef.filter(bool))
    loc = LocalizedSeries(pole, draw(st.integers(1, 3)), draw(scalar_bodies()))
    return loc, conv, draw(st.integers(-12, 1))


def assert_descending_d_order(got, conv):
    di = got.pos(conv.distinguished)
    exponents = [cell[di] for cell in got.terms]
    assert exponents == sorted(exponents, reverse=True)


@settings(max_examples=300, deadline=None)
@given(localized_series())
def test_expand_matches_generate_then_filter(case):
    loc, conv, dvar_floor = case
    got, runs = expand_with_spy(loc, conv, dvar_floor)
    want = reference_expand(loc, conv, dvar_floor)
    loop = tuple_loop_expand(loc, conv, dvar_floor)
    assert loop.terms == want.terms
    assert fraction_loop_expand(loc, conv, dvar_floor).terms == want.terms
    assert all(type(c) is F for c in loop.terms.values())
    assert (loop.tcap, loop.neg_floor, loop.x_ival) == (
        want.tcap, want.neg_floor, want.x_ival)
    assert (got is None) == (runs == [None])
    if got is None:
        # a remainder: expand raised, and the values are the loop's
        return
    # the quotient path: the same cells, by descending d exponent
    assert got.terms == want.terms
    assert_descending_d_order(got, conv)
    assert all(type(c) is F for c in got.terms.values())
    assert got.tcap == want.tcap
    assert got.neg_floor == want.neg_floor
    assert got.x_ival == want.x_ival


def times_linear_form(terms, pole):
    out = {}
    for cell, x in terms.items():
        for j, c in enumerate(pole.values()):
            if c:
                new = cell[:j] + (cell[j] + 1,) + cell[j + 1:]
                out[new] = out.get(new, 0) + c * x
    return {cell: x for cell, x in out.items() if x}


@st.composite
def divisible_series(draw):
    # lambda^k Q with lambda primitive: by Gauss's lemma Q over the lcm of
    # the body's denominators is an int polynomial, so c_d divides every
    # pivot; Q's cells of degree above tcap - k put body cells above tcap
    conv = draw(st.sampled_from((NEG_POWERS_Y1, NEG_POWERS_Y2)))
    coef = st.integers(-3, 3)
    pole = {"y1": draw(coef), "y2": draw(coef), "y3": draw(coef)}
    pole[conv.distinguished] = draw(coef.filter(bool))
    assume(any(c for n, c in pole.items() if n != conv.distinguished))
    assume(gcd(*pole.values()) == 1)
    k = draw(st.integers(1, 3))
    tcap = draw(st.integers(k, k + 3))
    cell = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                     st.integers(-6, 6))
    quot = draw(st.dictionaries(
        cell, st.fractions(min_value=-4, max_value=4, max_denominator=6)
        .filter(bool), min_size=1, max_size=6))
    assume(any(sum(c[:3]) <= tcap - k for c in quot))
    terms = quot
    for _ in range(k):
        terms = times_linear_form(terms, pole)
    body = MultiSeries(VARSPECS, terms, {"x": (None, None)}, tcap)
    return (LocalizedSeries(pole, k, body), conv, draw(st.integers(-12, 2)),
            quot)


@settings(max_examples=300, deadline=None)
@given(divisible_series())
def test_divisible_body_expands_to_its_quotient(case):
    loc, conv, dvar_floor, quot = case
    got, runs = expand_with_spy(loc, conv, dvar_floor)
    assert len(runs) == 1 and runs[0] is not None
    di = loc.body.pos(conv.distinguished)
    tcap = loc.body.tcap - loc.order
    assert got.terms == {cell: x for cell, x in quot.items()
                         if sum(cell[:3]) <= tcap and cell[di] >= dvar_floor}
    for ref in (reference_expand, fraction_loop_expand, tuple_loop_expand):
        assert got.terms == ref(loc, conv, dvar_floor).terms, ref.__name__
    assert_descending_d_order(got, conv)
    assert all(type(c) is F for c in got.terms.values())
    assert got.tcap == tcap
    assert got.neg_floor == {conv.distinguished: dvar_floor}
    assert got.x_ival == {"x": (None, None)}


def test_quotient_order_is_not_the_loop_order():
    # (-y1 - y2)(-y2^2 x + y1 y2 x + 2 y1 y3 / x): the tuple loop reaches
    # the y2^0 cell of the quotient before its y2^1 cell
    body = MultiSeries(VARSPECS, {(2, 0, 1, -1): F(-2), (1, 1, 1, -1): F(-2),
                                  (0, 3, 0, 1): F(1), (2, 1, 0, 1): F(-1)},
                       {"x": (None, None)}, 4)
    loc = LocalizedSeries({"y1": -1, "y2": -1, "y3": 0}, 1, body)
    got, runs = expand_with_spy(loc, NEG_POWERS_Y2, -4)
    assert runs[0] is not None
    assert list(got.terms.items()) == [
        ((0, 2, 0, 1), F(-1)), ((1, 1, 0, 1), F(1)), ((1, 0, 1, -1), F(2))]
    loop = tuple_loop_expand(loc, NEG_POWERS_Y2, -4)
    assert loop.terms == got.terms
    assert list(loop.terms) == [(0, 2, 0, 1), (1, 0, 1, -1), (1, 1, 0, 1)]
    assert got.terms == reference_expand(loc, NEG_POWERS_Y2, -4).terms


@pytest.mark.parametrize("pole,order,terms", [
    # (y1 - y2) y3 + y2^2: the y2^2 is left at y1 exponent 0
    ({"y1": 1, "y2": -1, "y3": 0}, 1,
     {(1, 0, 1, 0): F(1), (0, 1, 1, 0): F(-1), (0, 2, 0, 0): F(1)}),
    # y1 / (2 y1 + y2): 2 does not divide the pivot 1
    ({"y1": 2, "y2": 1, "y3": 0}, 1, {(1, 0, 0, 0): F(1)}),
    # (y1 + y2) y2 / (y1 + y2)^2: the first division leaves y2, which the
    # second cannot divide
    ({"y1": 1, "y2": 1, "y3": 0}, 2,
     {(1, 1, 0, 0): F(1), (0, 2, 0, 0): F(1)})],
    ids=["remainder", "pivot", "remainder-at-k"])
def test_body_left_with_a_remainder_takes_the_binomial_loop(pole, order,
                                                            terms):
    # expand raises a plain ValueError; the test-side loop has the values
    loc = LocalizedSeries(pole, order,
                          MultiSeries(VARSPECS, terms, {"x": (None, None)}, 3))
    got, runs = expand_with_spy(loc, NEG_POWERS_Y1, -6)
    assert runs == [None] and got is None
    with pytest.raises(ValueError, match="does not divide") as exc:
        loc.expand(NEG_POWERS_Y1, -6)
    assert type(exc.value) is ValueError
    loop = tuple_loop_expand(loc, NEG_POWERS_Y1, -6)
    assert loop.terms == reference_expand(loc, NEG_POWERS_Y1, -6).terms
    assert loop.terms


@settings(max_examples=200, deadline=None)
@given(localized_series(), st.integers(1, 3), scalar_bodies())
def test_add_of_opposite_poles_commutes_with_expand(case, order, body):
    # body/(-lambda)^k is (-1)^k body/lambda^k, and expansion is linear;
    # expand_or_raise also holds expand to each sum where it divides
    a, conv, dvar_floor = case
    b = LocalizedSeries({n: -c for n, c in a.pole.items()}, order, body)
    got = expand_or_raise(localized_add(a, b), conv, dvar_floor)
    want = expand_or_raise(a, conv, dvar_floor).add(
        expand_or_raise(b, conv, dvar_floor))
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
            localized_add(a, LocalizedSeries(pole, 1, body))


def test_expand_rejects_pole_in_window_variable():
    body = MultiSeries(VARSPECS, {(0, 0, 0, 0): F(1)}, None, 2)
    loc = LocalizedSeries({"y1": 1, "x": 1}, 1, body)
    with pytest.raises(ValueError):
        loc.expand(NEG_POWERS_Y1, -2)


def test_expand_of_order_zero_is_the_body():
    body = MultiSeries(VARSPECS, {(0, 0, 0, 0): F(1), (1, 0, 0, -2): F(1, 2)},
                       {"x": (None, None)}, 2)
    loc = LocalizedSeries({"y1": 1, "y2": -1}, 0, body)
    assert loc.expand(NEG_POWERS_Y1, -4) is body


def test_expand_rejects_untruncated_body():
    body = MultiSeries(VARSPECS, {(0, 0, 0, 0): F(1)}, None, None)
    loc = LocalizedSeries({"y1": 1, "y2": -1}, 1, body)
    with pytest.raises(UsageError):
        loc.expand(NEG_POWERS_Y1, -4)


@pytest.mark.parametrize("body,dvar_floor", [
    # every body cell above tcap
    (MultiSeries(VARSPECS, {(2, 1, 0, 0): F(3)}, None, 2), -4),
    # no body cell reaches the floor: imax = 0 - 0 - 1 < 0
    (MultiSeries(VARSPECS, {(0, 1, 0, 0): F(1)}, None, 2), 0)],
    ids=["above-tcap", "imax-negative"])
def test_expand_with_nothing_certified_is_empty(body, dvar_floor):
    loc = LocalizedSeries({"y1": 1, "y2": -1}, 1, body)
    results = [expand_or_raise(loc, NEG_POWERS_Y1, dvar_floor)]
    if body.tdeg(next(iter(body.terms))) > body.tcap:
        # nothing left to divide: expand returns the empty series too
        results.append(loc.expand(NEG_POWERS_Y1, dvar_floor))
    else:
        # y2 is no multiple of y1 - y2
        with pytest.raises(ValueError, match="does not divide"):
            loc.expand(NEG_POWERS_Y1, dvar_floor)
    for got in results:
        assert got.terms == {}
        assert got.tcap == body.tcap - 1
        assert got.neg_floor == {"y1": dvar_floor}
        assert got.x_ival == {"x": (None, None)}
