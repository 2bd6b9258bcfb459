"""Tests for the multivariate series core and the generating-function
operator calculus."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fockcalc import series
from fockcalc.exact import UsageError, _add_into
from fockcalc.fock import FockVector, basis, fock_str, vacuum
from fockcalc.quadratic import Lbar_apply, Lr_apply, L_apply, _lpq_mon
from fockcalc.report import VerificationReport
from fockcalc.series import (NEG_POWERS_Y1, NEG_POWERS_Y2, MultiSeries,
                             UncertifiedError, comb_int, contraction_check,
                             convention, normal_ordered_pair,
                             one_minus_exp_inverse, plusplus_pair,
                             regularized_commutator_check,
                             regularized_commutator_checks, trunc_var,
                             window_var)
from fockcalc.series import (_RHS_TERMS, _cell_key, _exp_cells,
                             _genfun_floor, _genfun_int_sides,
                             _genfun_scalars, _genfun_space, _pair_weights,
                             _plusplus_correction, _plusplus_pieces,
                             slot_pair_apply)
from fock_reference import monomial, ordered_pair_apply
from series_reference import (apply_dilation, apply_taylor, constant_series,
                              delta_series, derivative_pole, exp_linear_form,
                              localized_mul_series, localized_scale,
                              monomial_series)


def mono(*parts):
    return FockVector({monomial(parts): F(1)})


# ---------------------------------------------------------------------------
# series core
# ---------------------------------------------------------------------------

def test_delta_series_coefficients():
    vs = (window_var("x1", -6, 6), window_var("x2", -6, 6))
    d = delta_series(vs, {"x1": 1, "x2": -1}, (-6, 6))
    assert d.coeff((5, -5)) == 1
    assert d.coeff((3, -2)) == 0
    with pytest.raises(UncertifiedError):
        d.coeff((7, -7))


def test_delta_times_one_minus_x():
    vs = (window_var("x", -5, 5),)
    d = delta_series(vs, {"x": 1}, (-5, 5))
    poly = constant_series(vs).sub(monomial_series(vs, {"x": 1}))
    prod = d.mul(poly)
    # telescoping: zero on the interior, lowest window exponent uncertified
    assert prod.x_ival["x"] == (-4, 5)
    assert not prod.terms
    assert prod.coeff((0,)) == 0
    with pytest.raises(UncertifiedError):
        prod.coeff((-5,))


def test_window_product_of_two_deltas_is_uncertifiable():
    vs = (window_var("x", -3, 3),)
    d = delta_series(vs, {"x": 1}, (-3, 3))
    with pytest.raises(UncertifiedError):
        d.mul(d)


def test_half_certified_products():
    # power-series-like objects in a window variable: certified (None, hi)
    vs = (window_var("x", -8, 8),)
    a = MultiSeries(vs, {(0,): F(1), (1,): F(1)}, {"x": (None, 2)})
    b = MultiSeries(vs, {(0,): F(1), (1,): F(1)}, {"x": (None, 3)})
    prod = a.mul(b)
    # truncated-product rule recovered: certified through min(2+0, 3+0, 6)
    assert prod.x_ival["x"] == (None, 2)
    assert prod.terms == {(0,): F(1), (1,): F(2), (2,): F(1)}
    # opposite half-lines leave unknown-times-unknown meetings: empty
    c = MultiSeries(vs, {(0,): F(1)}, {"x": (1, None)})
    with pytest.raises(UncertifiedError):
        a.mul(c)


def test_zero_series_products_respect_certification():
    vs = (window_var("x", -4, 4),)
    window_zero = MultiSeries(vs, {}, {"x": (-2, 2)})
    complete_one = constant_series(vs)
    d = delta_series(vs, {"x": 1}, (-4, 4))
    # zero-on-window times complete: zero, certified on the window shape
    prod = window_zero.mul(complete_one)
    assert not prod.terms
    assert prod.x_ival["x"] == (-2, 2)
    # zero-on-window times a window series: nothing is certifiable
    with pytest.raises(UncertifiedError):
        window_zero.mul(d)
    # complete zero times anything: certified zero everywhere
    complete_zero = MultiSeries(vs, {}, {"x": (None, None)})
    prod = complete_zero.mul(d)
    assert not prod.terms
    assert prod.x_ival["x"] == (None, None)


_YX = (trunc_var("y"), window_var("x", -1, 1))


def _truncate(full, lo, hi, tcap=None):
    # a finite series in (y, x) and its truncation to the certified
    # region: x in [lo, hi] (a None end keeps every term on that side)
    # and y-degree <= tcap (None keeps every degree)
    kept = {(ey, ex): c for (ey, ex), c in full.items()
            if (lo is None or ex >= lo) and (hi is None or ex <= hi)
            and (tcap is None or ey <= tcap)}
    return full, MultiSeries(_YX, kept, {"x": (lo, hi)}, tcap)


@st.composite
def _truncated_series(draw):
    full = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(-3, 3)),
        st.builds(F, st.sampled_from([i for i in range(-6, 7) if i]),
                  st.integers(1, 4)),
        max_size=6))
    lo = draw(st.one_of(st.none(), st.integers(-4, 4)))
    hi = draw(st.one_of(st.none(), st.integers(-4, 4)))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    tcap = draw(st.one_of(st.none(), st.integers(0, 3)))
    return _truncate(full, lo, hi, tcap)


# both factors are supported in y-degree <= 3 and x in [-3, 3]: every
# product cell outside this range is zero in truth
_PRODUCT_CELLS = [(ey, ex) for ey in range(-1, 8) for ex in range(-20, 21)]


@settings(max_examples=500, deadline=None)
@given(_truncated_series(), _truncated_series())
# two factors with no stored terms, unknown on the same side: the first
# unknown product cell is the sum of their first unknown cells
@example(_truncate({(0, 1): F(1)}, None, 0),
         _truncate({(0, 2): F(1)}, None, 1))
@example(_truncate({(0, -1): F(1)}, 0, None),
         _truncate({(0, -2): F(1)}, -1, None))
# caps on both factors: the product is certified only through the
# smaller one
@example(_truncate({(2, 0): F(1)}, None, None, 3),
         _truncate({(1, 0): F(1), (0, 0): F(1)}, None, None, 0))
def test_product_certifies_only_cells_of_the_true_product(a, b):
    (full_a, ser_a), (full_b, ser_b) = a, b
    try:
        prod = ser_a.mul(ser_b)
    except UncertifiedError:
        event("uncertifiable")
        return
    truth = {}
    for (ya, xa), ca in full_a.items():
        for (yb, xb), cb in full_b.items():
            cell = (ya + yb, xa + xb)
            truth[cell] = truth.get(cell, 0) + ca * cb
    for cell in _PRODUCT_CELLS:
        if prod.known(cell):
            assert prod.coeff(cell) == truth.get(cell, 0), cell


def _certified_agree(x, y):
    """x and y agree on every cell both certify; the number compared."""
    compared = 0
    for ey in range(-1, 11):
        for ex in range(-30, 31):
            cell = (ey, ex)
            if x.known(cell) and y.known(cell):
                assert x.coeff(cell) == y.coeff(cell), cell
                compared += 1
    return compared


def _unless_uncertified(op):
    try:
        return op()
    except UncertifiedError:
        return None


@settings(max_examples=300, deadline=None)
@given(_truncated_series(), _truncated_series(), _truncated_series())
def test_product_is_associative_on_certified_cells(a, b, c):
    (_, ser_a), (_, ser_b), (_, ser_c) = a, b, c
    left = _unless_uncertified(lambda: ser_a.mul(ser_b).mul(ser_c))
    right = _unless_uncertified(lambda: ser_a.mul(ser_b.mul(ser_c)))
    if left is None or right is None:
        event("uncertifiable")
        return
    event("compared" if _certified_agree(left, right) else "nothing shared")


@settings(max_examples=300, deadline=None)
@given(_truncated_series(), _truncated_series(), _truncated_series())
def test_product_distributes_over_add_on_certified_cells(a, b, c):
    (_, ser_a), (_, ser_b), (_, ser_c) = a, b, c
    left = _unless_uncertified(lambda: ser_a.mul(ser_b.add(ser_c)))
    right = _unless_uncertified(lambda: ser_a.mul(ser_b).add(ser_a.mul(ser_c)))
    if left is None or right is None:
        event("uncertifiable")
        return
    event("compared" if _certified_agree(left, right) else "nothing shared")


@pytest.mark.parametrize("op", [MultiSeries.add, MultiSeries.mul],
                         ids=["add", "mul"])
def test_series_over_different_variables_raise(op):
    # an invariant, not an assert: it must hold under python -O too
    a = constant_series((window_var("x", -2, 2),))
    b = constant_series((window_var("z", -2, 2),))
    with pytest.raises(ValueError, match="different variables"):
        op(a, b)


def test_taylor_on_polynomial():
    vs = (trunc_var("y", 3), window_var("x", -5, 5))
    f = monomial_series(vs, {"x": 2})
    out = apply_taylor("y", f, "x")
    assert out.terms == {(0, 2): F(1), (1, 1): F(2), (2, 0): F(1)}


def test_taylor_on_negative_power():
    vs = (trunc_var("y", 2), window_var("x", -6, 6))
    f = monomial_series(vs, {"x": -1})
    out = apply_taylor("y", f, "x")
    assert out.terms == {(0, -1): F(1), (1, -2): F(-1), (2, -3): F(1)}


def test_known_reads_the_current_window():
    # the window positions are fixed by the variables; the certified
    # interval is read on every call
    vs = (trunc_var("y", 2), window_var("x", -4, 4), window_var("x2", -6, 6))
    s = MultiSeries(vs, tcap=2)
    assert s.window_names() == ("x", "x2")
    assert s.known((1, -4, 6)) and not s.known((1, -4, 7))
    assert not s.known((1, 5, 0)) and not s.known((3, 0, 0))
    s.x_ival["x2"] = (None, 0)
    assert s.known((0, 0, -100)) and not s.known((0, 0, 1))


def test_taylor_of_delta_matches_binomial_route():
    vs = (trunc_var("y", 2), window_var("x", -4, 4), window_var("x2", -6, 6))
    d = delta_series(vs, {"x": 1, "x2": -1}, (-4, 4))
    out = apply_taylor("y", d, "x")
    # ((x+y)/x2)^n expands to C(n,k) x^{n-k} y^k x2^{-n}
    for (k, ex, ex2), c in out.terms.items():
        n = -ex2
        assert ex == n - k
        assert c == comb_int(n, k)
    assert out.x_ival["x"] == (-4, 2)


def test_dilation_monomial():
    vs = (trunc_var("y", 2), window_var("x", -5, 5))
    f = monomial_series(vs, {"x": 3})
    out = apply_dilation("y", f, "x")
    assert out.terms == {(0, 3): F(1), (1, 3): F(3), (2, 3): F(9, 2)}


def test_dilation_of_delta():
    vs = (trunc_var("y", 3), window_var("x", -4, 4))
    d = delta_series(vs, {"x": 1}, (-4, 4))
    out = apply_dilation("y", d, "x")
    for n in range(-4, 5):
        assert out.coeff((1, n)) == n
        assert out.coeff((2, n)) == F(n * n, 2)


def test_dilation_composition_law():
    # e^{y1 D} e^{y2 D} = e^{(y1+y2) D}: coefficient of y1^a y2^b x^n is
    # n^{a+b} / (a! b!)
    vs = (trunc_var("y1", 2), trunc_var("y2", 2), window_var("x", -3, 3))
    f = monomial_series(vs, {"x": 2})
    out = apply_dilation("y1", apply_dilation("y2", f, "x"), "x")
    for (a, b, n), c in out.terms.items():
        assert n == 2
        assert c == F(2 ** (a + b), factorial(a) * factorial(b))


def test_exp_linear_form():
    vs = (trunc_var("y1", 3), trunc_var("y2", 3))
    ser = exp_linear_form(vs, {"y1": 2, "y2": -1}, 3)
    assert ser.coeff((0, 0)) == 1
    assert ser.coeff((1, 0)) == 2
    assert ser.coeff((1, 1)) == -2
    assert ser.coeff((2, 0)) == 2
    with pytest.raises(UncertifiedError):
        ser.coeff((4, 0))


def test_diff_shifts_certification():
    vs = (trunc_var("y", 3),)
    ser = exp_linear_form(vs, {"y": 1}, 3)
    d = ser.diff("y")
    assert d.tcap == 2
    assert d.coeff((0,)) == 1
    assert d.coeff((2,)) == F(1, 2)


# ---------------------------------------------------------------------------
# the geometric pole
# ---------------------------------------------------------------------------

def test_one_minus_exp_inverse_body():
    loc = one_minus_exp_inverse("y1", "y2", 6)
    body = loc.body
    assert body.coeff((0, 0)) == 1          # F(0,0) = 1
    # diagonal profile u/(1 - e^{-u}) = 1 + u/2 + u^2/12 - u^4/720 ...
    assert body.coeff((1, 0)) == F(1, 2)
    assert body.coeff((0, 1)) == F(-1, 2)


def test_one_minus_exp_inverse_expansion():
    loc = one_minus_exp_inverse("y1", "y2", 8)
    exp = loc.expand(NEG_POWERS_Y1, -6)
    # 1/(1-e^{-u}) = u^{-1} + 1/2 + u/12 - u^3/720 + ...
    assert exp.coeff((0, 0)) == F(1, 2)
    assert exp.coeff((1, 0)) == F(1, 12)
    assert exp.coeff((-1, 0)) == 1
    # pure negative powers come from the geometric expansion of (y1-y2)^-1
    assert exp.coeff((-2, 1)) == 1
    assert exp.neg_floor == {"y1": -6}


def test_expansion_requires_distinguished_variable():
    from fockcalc.series import ExpansionConvention
    loc = one_minus_exp_inverse("y1", "y2", 4)
    with pytest.raises(ValueError):
        loc.expand(ExpansionConvention("y3"), -4)
    assert convention("neg-powers-y1") is NEG_POWERS_Y1
    with pytest.raises(ValueError):
        convention("neg-powers-y3")


def test_expanded_series_refuse_products():
    loc = one_minus_exp_inverse("y1", "y2", 4)
    exp = loc.expand(NEG_POWERS_Y1, -4)
    with pytest.raises(UncertifiedError):
        exp.mul(exp)


def test_localized_derivative_fold():
    # d/dy1 of (y1-y2)^{-1} F = (y1-y2)^{-2} (lambda dF/dy1 - F)
    loc = one_minus_exp_inverse("y1", "y2", 6)
    dloc = loc.dy("y1")
    assert dloc.order == 2
    # expanded derivative: d/du [u^{-1} + 1/2 + u/12 - u^3/720]
    exp = dloc.expand(NEG_POWERS_Y1, -6)
    assert exp.coeff((-2, 0)) == -1
    assert exp.coeff((0, 0)) == F(1, 12)
    assert exp.coeff((1, 0)) == 0


# ---------------------------------------------------------------------------
# generating products
# ---------------------------------------------------------------------------

def test_colon_pair_diagonal_extraction():
    for mon_ in basis(3):
        v = FockVector({mon_: F(1)})
        pair = normal_ordered_pair("y1", "y2", "x", v, (-4, 4), 6)
        for r in range(3):
            for n in range(-3, 4):
                got = pair.terms.get((r, r, -n), FockVector())
                got = got.scale(F(factorial(r) ** 2, 2))
                assert got == Lr_apply(r, n, v), (mon_, r, n)


def test_colon_pair_r0_is_L():
    v = mono(2, 1)
    pair = normal_ordered_pair("y1", "y2", "x", v, (-3, 3), 2)
    for n in range(-3, 4):
        got = pair.terms.get((0, 0, -n), FockVector()).scale(F(1, 2))
        assert got == L_apply(n, v)


def test_colon_pair_vacuum_has_no_scalar():
    pair = normal_ordered_pair("y1", "y2", "x", vacuum(), (-3, 3), 4)
    assert not [c for c in pair.terms if c[2] == 0]


def test_plusplus_pair_zero_mode_eigenvalues():
    pp = plusplus_pair("y1", "y2", "x", vacuum(), (-3, 3), 8)
    for r in range(4):
        got = pp.terms.get((r, r, 0), FockVector())
        got = got.scale(F(factorial(r) ** 2, 2))
        assert got == Lbar_apply(r, 0, vacuum()), r


def test_plusplus_matches_colon_away_from_zero_mode():
    v = mono(1)
    pp = plusplus_pair("y1", "y2", "x", v, (-3, 3), 4)
    colon = normal_ordered_pair("y1", "y2", "x", v, (-3, 3), 4)
    for cell, vec in colon.terms.items():
        if cell[2] != 0:
            assert pp.terms.get(cell) == vec


def test_plusplus_both_conventions_agree_on_diagonal():
    v = mono(2)
    for conv in (NEG_POWERS_Y1, NEG_POWERS_Y2):
        pp = plusplus_pair("y1", "y2", "x", v, (-2, 2), 6, conv)
        for r in range(3):
            got = pp.terms.get((r, r, 0), FockVector())
            got = got.scale(F(factorial(r) ** 2, 2))
            assert got == Lbar_apply(r, 0, v)


# ---------------------------------------------------------------------------
# contraction identity
# ---------------------------------------------------------------------------

def test_contraction_scalar_cells_on_vacuum():
    rep = contraction_check(vacuum(), 6)
    assert rep.passed
    cells = {c.key: c for c in rep.cells}
    assert cells["x1^-1 x2^1"].lhs == "1*[]"
    assert cells["x1^-3 x2^3"].lhs == "3*[]"
    # off the contraction diagonal nothing scalar survives on the vacuum
    assert "x1^-1 x2^2" not in cells or cells["x1^-1 x2^2"].lhs != "1*[]"


def test_contraction_on_low_weight_basis():
    for mon_ in basis(3):
        rep = contraction_check(FockVector({mon_: F(1)}), 8)
        assert rep.passed, mon_


# ---------------------------------------------------------------------------
# the generating-function commutator identity
# ---------------------------------------------------------------------------

def test_commutator_genfun_vacuum():
    rep = regularized_commutator_check(vacuum(), 3, 1)
    assert rep.passed
    assert rep.counts["failed"] == 0
    assert rep.counts["uncertified"] == 0


def test_commutator_genfun_zero_y_slice_matches_bracket_data():
    v = mono(1)
    rep = regularized_commutator_check(v, 3, 1)
    assert rep.passed
    cells = {c.key: c for c in rep.cells}
    for m in (1, 2):
        expect = (Lbar_apply(0, m, Lbar_apply(0, -m, v))
                  - Lbar_apply(0, -m, Lbar_apply(0, m, v)))
        assert cells[f"x1^{-m} x2^{m}"].lhs == fock_str(expect)
        assert cells[f"x1^{-m} x2^{m}"].status == "pass"


def test_commutator_genfun_alternative_convention():
    rep = regularized_commutator_check(vacuum(), 3, 1, NEG_POWERS_Y2)
    assert rep.passed
    assert rep.parameters["convention"] == "neg-powers-y2"


def test_commutator_genfun_grading_cells_vanish():
    # cells with x1 + x2 exponent sum different from the weight shift are 0=0
    v = mono(1)
    rep = regularized_commutator_check(v, 2, 1)
    assert rep.passed
    for c in rep.cells:
        if "x1^2 x2^2" in c.key and c.lhs != "0":
            raise AssertionError("weight-violating cell is nonzero")


def test_commutator_genfun_lhs_is_convention_independent():
    # only the expanded right side depends on the convention; the left
    # side values must agree cell-for-cell between the two runs
    v = mono(1)
    rep1 = regularized_commutator_check(v, 2, 1, NEG_POWERS_Y1)
    rep2 = regularized_commutator_check(v, 2, 1, NEG_POWERS_Y2)
    lhs1 = {c.key: c.lhs for c in rep1.cells}
    lhs2 = {c.key: c.lhs for c in rep2.cells}
    for key in set(lhs1) & set(lhs2):
        assert lhs1[key] == lhs2[key], key


def _correction_snapshot(conv, window, ydeg):
    return [(n, dict(ser.terms), dict(ser.x_ival), ser.tcap,
             dict(ser.neg_floor))
            for n, ser in _plusplus_correction(conv, window, ydeg)]


def test_shared_correction_is_not_mutated_by_checks():
    before = _correction_snapshot(NEG_POWERS_Y1, 1, 1)
    cached = _plusplus_correction(NEG_POWERS_Y1, 1, 1)
    for v in (mono(1), mono(1, 1)):
        assert regularized_commutator_check(v, 1, 1, NEG_POWERS_Y1).passed
    assert _plusplus_correction(NEG_POWERS_Y1, 1, 1) is cached
    assert _correction_snapshot(NEG_POWERS_Y1, 1, 1) == before
    with pytest.raises(TypeError):
        cached[0][1].terms[(0,) * 6] = F(1)
    # the convention-free pole sums behind it are shared and read-only too
    pieces = _plusplus_pieces(1, 1)
    assert _plusplus_pieces(1, 1) is pieces
    for _, locs in pieces:
        assert locs
        for loc in locs:
            with pytest.raises(TypeError):
                loc.body.terms[(0,) * 6] = F(1)
    # so are the int tables of the sides: nested tuples of ints
    scalars = _genfun_scalars(1, 1)
    assert _genfun_scalars(1, 1) is scalars
    hash(scalars)


def test_commutator_genfun_hot_cache_matches_cold():
    v = mono(2)
    regularized_commutator_check(v, 1, 1, NEG_POWERS_Y2)
    hot = regularized_commutator_check(v, 1, 1, NEG_POWERS_Y1).to_json_dict()
    for cache in (_plusplus_correction, _plusplus_pieces, _genfun_scalars,
                  _pair_weights, _lpq_mon, _exp_cells):
        cache.cache_clear()
    cold = regularized_commutator_check(v, 1, 1, NEG_POWERS_Y1).to_json_dict()
    assert _plusplus_pieces.cache_info().misses == 1
    assert hot == cold


def _four_piece_correction(conv, window, ydeg):
    # every term expanded on its own, then summed per n
    varspecs = _genfun_space(window, ydeg)
    body_order = ydeg + 3
    out = {}
    for outer, a_form, b_var, (f, g) in _RHS_TERMS:
        base = derivative_pole(a_form, {b_var: 1}, varspecs, body_order)
        for n in range(-window, window + 1):
            efactor = exp_linear_form(varspecs, {f: n, g: -n}, body_order)
            piece = (localized_scale(
                localized_mul_series(base, efactor).dy(outer), F(1, 4))
                .expand(conv, _genfun_floor(ydeg)))
            out[n] = piece if n not in out else out[n].add(piece)
    return out


@pytest.mark.parametrize("conv", [NEG_POWERS_Y1, NEG_POWERS_Y2],
                         ids=["y1", "y2"])
@pytest.mark.parametrize("window,ydeg", [(1, 1), (2, 1), (2, 2)])
def test_plusplus_correction_matches_four_piece_sum(conv, window, ydeg):
    want = _four_piece_correction(conv, window, ydeg)
    got = _plusplus_correction(conv, window, ydeg)
    assert [n for n, _ in got] == sorted(want)
    for n, ser in got:
        # the pure central term carries m^3 - m: zero at |n| <= 1 only
        assert bool(ser.terms) == (abs(n) >= 2), n
        assert dict(ser.terms) == want[n].terms, n
        assert ser.x_ival == want[n].x_ival
        assert ser.tcap == want[n].tcap
        assert ser.neg_floor == want[n].neg_floor


@pytest.mark.parametrize("window,ydeg", [(2, 0), (3, 1), (2, 2), (5, 2),
                                         (3, 3), (4, 4), (6, 2)])
def test_plusplus_correction_is_convention_free_and_pole_free(window, ydeg):
    # the facts a closed form of the correction rests on: the summed
    # terms have no pole left, so both conventions give the same cells,
    # none with a negative exponent, and the sum vanishes at |n| <= 1
    by_y1 = _plusplus_correction(NEG_POWERS_Y1, window, ydeg)
    by_y2 = _plusplus_correction(NEG_POWERS_Y2, window, ydeg)
    assert [n for n, _ in by_y1] == list(range(-window, window + 1))
    for (n, s1), (m, s2) in zip(by_y1, by_y2):
        assert n == m
        assert dict(s1.terms) == dict(s2.terms), n
        assert all(e >= 0 for cell in s1.terms for e in cell), n
        assert bool(s1.terms) == (abs(n) >= 2), n


# ---------------------------------------------------------------------------
# Fraction reference of the generating-function sides
# ---------------------------------------------------------------------------
# The Fraction-vector construction that the int tables of
# ``_genfun_scalars`` replaced, kept as their oracle: the sides are built as
# certified ``MultiSeries`` from ``slot_pair_apply`` and a delta product
# pinned by the x1 exponent, and compared with a ++ correction built
# through the public ``LocalizedSeries`` operations.

def _int_weight(c) -> int:
    """c as an int, which it must be exactly."""
    c = F(c)
    if c.denominator != 1:
        raise ValueError(f"weight {c} is not an int")
    return c.numerator


def _mul_delta_pinned(n_series, f, g, x1, x2, out_window, tcap):
    """n_series(x2, y) * delta(e^f x1 / e^g x2) on the output box.

    The delta contributes e^{n(f-g)} x1^n x2^{-n}; for an output cell the
    x1 exponent pins n, so the x2 slice of n_series is shifted by n and
    convolved with one exponential factor.  The factor's cells are taken
    in order of degree, up to the budget tcap - tdeg left by each
    n_series cell, with their coefficients times tcap! as int weights;
    cells outside the certified x2 interval are never formed.
    """
    x1i, x2i = n_series.pos(x1), n_series.pos(x2)
    lo, hi = out_window
    n_lo, n_hi = n_series.x_ival[x2]
    ival = dict(n_series.x_ival)
    ival[x1] = (lo, hi)
    ival[x2] = (n_lo - lo, n_hi - hi)
    out = MultiSeries(n_series.varspecs, {}, ival, min(n_series.tcap, tcap))
    x2_lo, x2_hi = ival[x2]
    scale = factorial(tcap)
    ncells = [(ncell, out.tcap - out.tdeg(ncell), vec)
              for ncell, vec in n_series.terms.items()]
    accs = {}                   # cell -> {monomial: Fraction} sum
    for e1 in range(lo, hi + 1):
        efactor = exp_linear_form(n_series.varspecs, {f: e1, g: -e1}, tcap)
        ecells = sorted((out.tdeg(ycell), ycell, _int_weight(c * scale))
                        for ycell, c in efactor.terms.items())
        for ncell, budget, vec in ncells:
            e2 = ncell[x2i] - e1
            if not x2_lo <= e2 <= x2_hi:
                continue
            for deg, ycell, c in ecells:
                if deg > budget:
                    break
                cell = [a + b for a, b in zip(ncell, ycell)]
                cell[x1i] = e1
                cell[x2i] = e2
                acc = accs.setdefault(tuple(cell), {})
                for mon, x in vec.terms.items():
                    _add_into(acc, mon, x * c)
    out.terms = {cell: FockVector({mon: x / scale for mon, x in acc.items()})
                 for cell, acc in accs.items()}
    return out._prune()


def slot_pair_apply_series(a_form, b_form, xname, window, s):
    """Apply the colon pair in a fresh window variable to every
    coefficient of a vector-valued series."""
    if s.tcap is None:
        raise UsageError("series must carry a truncation cap")
    xi = s.pos(xname)
    lo, hi = window
    ival = dict(s.x_ival)
    ival[xname] = (lo, hi)
    out = MultiSeries(s.varspecs, {}, ival, s.tcap, s.neg_floor)
    for scell, vec in s.terms.items():
        if scell[xi] != 0:
            raise UsageError(f"series already involves {xname}")
        budget = s.tcap - s.tdeg(scell)
        part = slot_pair_apply(s.varspecs, a_form, b_form, xname, window, vec,
                               budget)
        for pcell, pvec in part.terms.items():
            cell = tuple(a + b for a, b in zip(scell, pcell))
            _add_into(out.terms, cell, pvec)
    return out._prune()


def _genfun_sides(v, w, d):
    """The convention-free sides of the identity on v as Fraction-vector
    series: the left side and the colon part of the right side."""
    varspecs = _genfun_space(w, d)

    # left side: (1/4) [colon pair at x1, colon pair at x2] v
    q = slot_pair_apply(varspecs, {"y3": 1}, {"y4": 1}, "x2", (-w, w), v, d)
    pq = slot_pair_apply_series({"y1": 1}, {"y2": 1}, "x1", (-w, w), q)
    r = slot_pair_apply(varspecs, {"y1": 1}, {"y2": 1}, "x1", (-w, w), v, d)
    qr = slot_pair_apply_series({"y3": 1}, {"y4": 1}, "x2", (-w, w), r)
    lhs = pq.sub(qr).scale(F(1, 4))

    # right side, colon parts: -(1/4) d_outer [slot series * delta]
    rhs = MultiSeries(varspecs, {}, {"x1": (-w, w), "x2": (-w, w)}, d)
    for outer, a_form, b_var, (f, g) in _RHS_TERMS:
        n_series = slot_pair_apply(varspecs, a_form, {b_var: 1}, "x2",
                                   (-2 * w, 2 * w), v, d + 1)
        nd = _mul_delta_pinned(n_series, f, g, "x1", "x2", (-w, w), d + 1)
        rhs = rhs.add(nd.diff(outer))
    return lhs, rhs.scale(F(-1, 4))


def _reference_report(v, lhs, rhs, conv, w, d, correction):
    """One convention's report from the Fraction sides, with the expanded
    ++ correction {n: series} acting on v as identity on x2 = -x1."""
    dvar = conv.distinguished
    floor_d = _genfun_floor(d)
    varspecs = lhs.varspecs
    pos = {vs.name: i for i, vs in enumerate(varspecs)}
    x1i, x2i = pos["x1"], pos["x2"]
    rep = VerificationReport(
        identity="regularized-commutator-genfun",
        parameters={"weight": v.max_weight(), "window": w, "ydeg": d,
                    "convention": f"neg-powers-{dvar}",
                    "dvar_floor": floor_d},
    )
    others = [n for n in ("y1", "y2", "y3", "y4") if n != dvar]

    def in_region(cell):
        if not (-w <= cell[x1i] <= w and -w <= cell[x2i] <= w):
            return False
        ed = cell[pos[dvar]]
        rest = [cell[pos[n]] for n in others]
        return (ed >= floor_d and all(e >= 0 for e in rest)
                and ed + sum(rest) <= d)

    candidates = set(lhs.terms) | set(rhs.terms)
    if v:
        for n, ser in correction.items():
            for cell in ser.terms:
                full = list(cell)
                full[x1i] = n
                full[x2i] = -n
                candidates.add(tuple(full))
    checked = sorted(c for c in candidates if in_region(c))
    rep.bulk_passed += len(list(_region(conv, w, d))) - len(checked)
    zero = FockVector()
    for cell in checked:
        lv = lhs.terms.get(cell, zero) if lhs.known(cell) else None
        rv = rhs.terms.get(cell, zero) if rhs.known(cell) else None
        if rv is not None and cell[x2i] == -cell[x1i]:
            ser = correction[cell[x1i]]
            ycell = cell[:4] + (0, 0)
            if not ser.known(ycell):
                rv = None
            elif ycell in ser.terms:
                rv = rv + v.scale(ser.terms[ycell])
        key = _cell_key(varspecs, cell)
        if lv is None or rv is None:
            rep.add_uncertified(key)
        else:
            rep.add_cell(key, fock_str(lv), fock_str(rv))
    return rep


def _unbudgeted_delta_product(n_series, f, g, x1, x2, out_window, tcap):
    # every (n_series cell, exponential cell) product is formed, and only
    # then are the cells above tcap or outside the certified box dropped
    x1i, x2i = n_series.pos(x1), n_series.pos(x2)
    lo, hi = out_window
    n_lo, n_hi = n_series.x_ival[x2]
    ival = dict(n_series.x_ival)
    ival[x1] = (lo, hi)
    ival[x2] = (n_lo - lo, n_hi - hi)
    out = MultiSeries(n_series.varspecs, {}, ival, min(n_series.tcap, tcap))
    for e1 in range(lo, hi + 1):
        efactor = exp_linear_form(n_series.varspecs, {f: e1, g: -e1}, tcap)
        for ncell, vec in n_series.terms.items():
            for ycell, c in efactor.terms.items():
                cell = [a + b for a, b in zip(ncell, ycell)]
                cell[x1i] = e1
                cell[x2i] = ncell[x2i] - e1
                cell = tuple(cell)
                if out.tdeg(cell) <= out.tcap:
                    out.terms[cell] = (out.terms.get(cell, FockVector())
                                       + vec.scale(c))
    return out._prune()


@pytest.mark.parametrize("v", [mono(1), mono(2, 1) + mono(1, 1, 1).scale(
    F(1, 3)) + vacuum()], ids=["h", "inhomogeneous"])
@pytest.mark.parametrize("ydeg", [1, 2])
def test_delta_product_budget_matches_unbudgeted_product(v, ydeg):
    w = 2
    varspecs = _genfun_space(w, ydeg)
    for outer, a_form, b_var, (f, g) in _RHS_TERMS:
        n_series = slot_pair_apply(varspecs, a_form, {b_var: 1}, "x2",
                                   (-2 * w, 2 * w), v, ydeg + 1)
        # tcap below, at and above the n_series cap
        for tcap in (ydeg, ydeg + 1, ydeg + 2):
            got = _mul_delta_pinned(n_series, f, g, "x1", "x2", (-w, w),
                                    tcap)
            want = _unbudgeted_delta_product(n_series, f, g, "x1", "x2",
                                             (-w, w), tcap)
            assert got.terms and got.terms == want.terms, (outer, tcap)
            assert got.x_ival == want.x_ival
            assert got.tcap == want.tcap


def _slot_pair_reference(varspecs, a_form, b_form, xname, window, v, tcap):
    # the defining sum over j: one exponential per ordered pair (j, n - j)
    xi = varspecs.index(next(s for s in varspecs if s.name == xname))
    terms = {}
    for e in range(window[0], window[1] + 1):
        n = -e
        for j in range(min(0, n) - v.max_weight(),
                       max(0, n) + v.max_weight() + 1):
            k = n - j
            vec = ordered_pair_apply(j, k, v) if j and k else FockVector()
            if not vec:
                continue
            form = {}
            for name, c in a_form.items():
                form[name] = form.get(name, 0) - j * c
            for name, c in b_form.items():
                form[name] = form.get(name, 0) - k * c
            for ycell, c in exp_linear_form(varspecs, form, tcap).terms.items():
                cell = ycell[:xi] + (e,) + ycell[xi + 1:]
                terms[cell] = terms.get(cell, FockVector()) + vec.scale(c)
    return {cell: vec for cell, vec in terms.items() if vec}


@pytest.mark.parametrize("a_form, b_form", [
    ({"y1": 1}, {"y2": 1}),
    ({"y1": -1, "y2": 1, "y3": 1}, {"y4": 1}),
    ({"y1": 2, "y2": -1}, {"y1": 1, "y3": -3}),   # overlapping supports
])
def test_slot_pair_tables_match_defining_sum(a_form, b_form):
    varspecs = _genfun_space(3, 3)
    for v in (mono(1), mono(1, 1, 1), mono(3, 1).scale(F(2, 3)) + mono(2)
              + vacuum().scale(F(-1, 2))):
        got = slot_pair_apply(varspecs, a_form, b_form, "x2", (-3, 3), v, 3)
        want = _slot_pair_reference(varspecs, a_form, b_form, "x2", (-3, 3),
                                    v, 3)
        assert got.terms and got.terms == want
        assert all(type(c) is F for vec in got.terms.values()
                   for c in vec.terms.values())


def test_pair_weights_are_exact_ints():
    for alpha, den, weights in _pair_weights((2, -1, 0, 0), (1, 0, -3, 0), 4):
        assert alpha[3] == 0 and sum(alpha) <= 4
        assert den == factorial(alpha[0]) * factorial(alpha[1]) * factorial(
            alpha[2])
        for p, q, wt in weights:
            assert p + q == sum(alpha) and type(wt) is int and wt


def _certified(rep):
    return {c.key: (c.lhs, c.rhs, c.status) for c in rep.cells
            if c.status != "uncertified"}


@pytest.mark.parametrize("v", [mono(1), mono(2) + mono(1, 1).scale(F(1, 2))
                               + vacuum()], ids=["h", "inhomogeneous"])
def test_commutator_genfun_enlarged_box_keeps_certified_cells(v):
    # a wider window or a higher y-degree certifies more, and must list
    # every cell certified on the smaller box as it was
    convs = (NEG_POWERS_Y1, NEG_POWERS_Y2)
    small = regularized_commutator_checks(v, 2, 1, convs)
    for window, ydeg in ((3, 1), (2, 2)):
        large = regularized_commutator_checks(v, window, ydeg, convs)
        for rep_small, rep_large in zip(small, large):
            cells = _certified(rep_small)
            assert cells and rep_small.passed and rep_large.passed
            listed = {c.key: (c.lhs, c.rhs, c.status)
                      for c in rep_large.cells}
            for key, entry in cells.items():
                assert listed.get(key) == entry, key


def _region(conv, w, d):
    # every compared cell: x exponents in the +-w box, the others of
    # y1..y4 nonnegative, the distinguished one down to the pole floor,
    # total y-degree <= d
    dvar = int(conv.distinguished[1]) - 1
    for ed in range(_genfun_floor(d), d + 1):
        budget = d - ed
        for a in range(budget + 1):
            for b in range(budget - a + 1):
                for c in range(budget - a - b + 1):
                    rest = [a, b, c]
                    ys = rest[:dvar] + [ed] + rest[dvar:]
                    for e1 in range(-w, w + 1):
                        for e2 in range(-w, w + 1):
                            yield tuple(ys) + (e1, e2)


@pytest.mark.parametrize("conv", [NEG_POWERS_Y1, NEG_POWERS_Y2],
                         ids=["y1", "y2"])
def test_commutator_genfun_bulk_cells_are_certified_zeros(conv):
    w, d = 2, 1
    varspecs = _genfun_space(w, d)
    correction = dict(_plusplus_correction(conv, w, d))
    for mon in basis(2):
        v = FockVector({mon: F(1)})
        lhs, rhs = _genfun_sides(v, w, d)          # the Fraction reference
        int_lhs, int_rhs = _genfun_int_sides(v, w, d)[3:]
        rep = regularized_commutator_checks(v, w, d, (conv,))[0]
        listed = {c.key for c in rep.cells}
        region = list(_region(conv, w, d))
        assert len(set(region)) == len(region)
        assert rep.bulk_passed + len(rep.cells) == len(region)
        for cell in region:
            if _cell_key(varspecs, cell) in listed:
                continue
            assert lhs.known(cell) and rhs.known(cell), cell
            assert cell not in lhs.terms and cell not in rhs.terms, cell
            assert cell not in int_lhs and cell not in int_rhs, cell
            if cell[5] == -cell[4]:
                ser = correction[cell[4]]
                ycell = cell[:4] + (0, 0)
                assert ser.known(ycell) and ycell not in ser.terms, cell


_ORACLE_VECTORS = [FockVector({mon: F(1)}) for mon in basis(2)] + [
    mono(2) + mono(1, 1).scale(F(1, 2)) + vacuum().scale(F(1, 3))]


@pytest.mark.parametrize("ydeg", [1, 2])
def test_int_sides_match_fraction_sides(ydeg):
    # every candidate cell of both conventions, against the Fraction sides
    # and a ++ correction expanded term by term; the last vector has
    # denominators 2 and 3, so a scale without den(v) shows
    w = 2
    convs = (NEG_POWERS_Y1, NEG_POWERS_Y2)
    corrections = {conv: _four_piece_correction(conv, w, ydeg)
                   for conv in convs}
    for v in _ORACLE_VECTORS:
        lhs, rhs = _genfun_sides(v, w, ydeg)
        got = regularized_commutator_checks(v, w, ydeg, convs)
        for conv, rep in zip(convs, got):
            want = _reference_report(v, lhs, rhs, conv, w, ydeg,
                                     corrections[conv])
            assert rep.cells and rep.to_json_dict() == want.to_json_dict()


def test_correction_off_the_scale_raises(monkeypatch):
    # a correction coefficient that is not a multiple of 1/E must raise,
    # never be floored onto the scale
    real = series._plusplus_correction

    def off_scale(conv, window, ydeg):
        return tuple((n, MultiSeries(ser.varspecs,
                                     {c: x / 7 for c, x in ser.terms.items()},
                                     ser.x_ival, ser.tcap, ser.neg_floor))
                     for n, ser in real(conv, window, ydeg))

    monkeypatch.setattr(series, "_plusplus_correction", off_scale)
    with pytest.raises(ValueError):
        regularized_commutator_checks(mono(1), 2, 1, (NEG_POWERS_Y1,))


def test_sides_on_too_coarse_a_scale_raise(monkeypatch):
    # den(v) left out of the scale: v itself is off it
    monkeypatch.setattr(series, "_den", lambda v: 1)
    with pytest.raises(ValueError):
        regularized_commutator_checks(_ORACLE_VECTORS[-1], 1, 1,
                                      (NEG_POWERS_Y1,))
