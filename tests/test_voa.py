"""Tests for the free boson vertex operator algebra layer."""

import functools
import gc
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from fockcalc import cli, voa
from fockcalc.fock import (FockVector, _den, _iaxpy, _off_scale, _on_scale,
                           basis, h_apply, vacuum)
from fockcalc.quadratic import L_apply, to_matrix, L_op
from fockcalc.report import FAIL, PASS, UNCERTIFIED, VerificationReport
from fockcalc.series import comb_int
from fockcalc.voa import (VOAConstants, X_apply, axiom_suite,
                          commutator_cells, dilated_jacobi_check,
                          jacobi_check, mode_apply, weak_comm_check,
                          x_commutator_cells, zhu_bracket_apply)
from fockcalc.voa import (_compose_zhu_with_log, _int_commutator_cells,
                          _mode_mon)
from fock_reference import monomial, weight


def mono(*parts):
    return FockVector({monomial(parts): F(1)})


H = mono(1)
OMEGA = VOAConstants.omega()


def test_vacuum_operator_is_identity():
    w = mono(2, 1)
    for n in range(-5, 6):
        got = mode_apply(vacuum(), n, w)
        assert got == (w if n == -1 else FockVector())


def test_creation_property():
    for mon_ in basis(4):
        v = FockVector({mon_: F(1)})
        assert mode_apply(v, -1, vacuum()) == v
        for n in range(0, 8):
            assert not mode_apply(v, n, vacuum())


def test_h_state_modes_are_oscillators():
    for n in range(-5, 6):
        for mon_ in basis(4):
            w = FockVector({mon_: F(1)})
            assert mode_apply(H, n, w) == h_apply(n, w)


def test_omega_modes_are_the_quadratic_family():
    # mode matrices equal the quadratic operator matrices block for block
    for n in range(-4, 5):
        op = to_matrix(L_op(n), 6)
        for w in range(7):
            from fockcalc.fock import weight_basis
            for i, mon_ in enumerate(weight_basis(w)):
                got = mode_apply(OMEGA, n + 1, FockVector({mon_: F(1)}))
                assert got == op.cols[w][i]


def test_mode_weight_bookkeeping():
    for umon in basis(3):
        u = FockVector({umon: F(1)})
        for wmon in basis(3):
            w = FockVector({wmon: F(1)})
            for n in range(-4, 6):
                out = mode_apply(u, n, w)
                if out:
                    assert weight(out) == sum(umon) + sum(wmon) - n - 1


def test_X_apply_examples():
    w = mono(2)
    for n in range(-4, 5):
        assert X_apply(H, w, n) == h_apply(n, w)
        assert X_apply(OMEGA, w, n) == L_apply(n, w)
    assert X_apply(vacuum(), w, 0) == w
    assert not X_apply(vacuum(), w, 3)


def test_zhu_vacuum_state():
    v = mono(2, 1)
    zb = zhu_bracket_apply(vacuum(), v, 5)
    assert zb.terms == {(0,): v}


def test_zhu_creation_constant_term():
    for mon_ in basis(3):
        u = FockVector({mon_: F(1)})
        zb = zhu_bracket_apply(u, vacuum(), 3)
        assert zb.terms.get((0,)) == u
        assert all(e >= 0 for (e,) in zb.terms)


def test_zhu_scalar_profile():
    # vacuum component of Y[h,y]h is e^y/(e^y-1)^2 = y^{-2} - 1/12 + ...
    zb = zhu_bracket_apply(H, H, 6)
    vac_part = {e: vec.terms.get((), F(0)) for (e,), vec in zb.terms.items()}
    assert vac_part.get(-2) == 1
    assert vac_part.get(0) == F(-1, 12)
    assert vac_part.get(2) == F(1, 240)
    assert vac_part.get(4) == F(-1, 6048)
    assert not vac_part.get(-1)


def test_zhu_lower_truncation():
    zb = zhu_bracket_apply(OMEGA, OMEGA, 4)
    assert min(e for (e,) in zb.terms) >= -4
    assert zb.x_ival["y"] == (None, 4)


def test_empty_box_does_not_pass():
    # a check that compared nothing has not verified anything
    rep = axiom_suite(-1, 2)
    assert rep.counts["total"] == 0 and not rep.passed
    empty = {"x0": (1, 0), "x1": (-1, 1), "x2": (-1, 1)}
    for check in (jacobi_check, lambda *a: dilated_jacobi_check(*a, 1)):
        rep = check(H, H, mono(1), empty)
        assert rep.counts["total"] == 0 and not rep.passed


def test_axiom_suite_passes():
    rep = axiom_suite(3, 4)
    assert rep.passed
    assert rep.counts["failed"] == 0


def test_weak_commutativity_orders():
    assert weak_comm_check(H, H, vacuum(), 5, 6).data["order_found"] == 2
    assert weak_comm_check(vacuum(), OMEGA, vacuum(), 5, 6).data["order_found"] == 0
    assert weak_comm_check(OMEGA, OMEGA, vacuum(), 5, 8).data["order_found"] == 4


@pytest.mark.parametrize("u, window, n_max", [
    (H, 0, 0), (H, 0, 1), (H, 1, 0), (OMEGA, 0, 0)])
def test_weak_comm_order_stays_uncertified_at_small_n_max(u, window, n_max):
    # neither the box nor the cells the (x1-x2)^n search reads hold a
    # nonzero commutator cell here, but the commutator is not zero: the
    # true orders are 2 (h, h) and 4 (omega, omega)
    rep = weak_comm_check(u, u, vacuum(), window, n_max)
    assert rep.data["order_found"] is None
    assert [(c.key, c.status) for c in rep.cells] == [
        ("annihilation-order", UNCERTIFIED)]


def test_nonzero_commutator_has_a_cell_near_the_origin():
    # weak_comm_check's docstring: a commutator that is nonzero anywhere is
    # nonzero at a cell with -J-1 <= e1 <= -1 and -J <= e2 <= 0, where
    # J < wt u + wt v; checked against a wider box
    states = [FockVector({mon: F(1)}) for mon in basis(3)]
    states.append(OMEGA + H.scale(2))
    for u in states:
        for v in states:
            top = u.max_weight() + v.max_weight()
            for wmon in basis(2):
                cells = commutator_cells(u, v, FockVector({wmon: F(1)}),
                                         top + 3)
                near = any(-top <= e1 <= -1 and 1 - top <= e2 <= 0
                           for e1, e2 in cells)
                assert near == bool(cells), (u.terms, v.terms, wmon)


def _weak_comm_on_the_full_box(u, v, w, window, n_max):
    # weak_comm_check computing the whole +-reach square, as it did before
    # it asked only for the cells its search reads
    rep = VerificationReport(identity="weak-commutativity",
                             parameters={"window": window, "n_max": n_max})
    reach = max(window + n_max, u.max_weight() + v.max_weight())
    _, comm = _int_commutator_cells(u, v, w, -reach, reach)
    box = range(-window, window + 1)

    def annihilates(n):
        for a1 in box:
            for a2 in box:
                acc = {}
                for k in range(n + 1):
                    if got := comm.get((a1 - (n - k), a2 - k)):
                        _iaxpy(acc, got, comb_int(n, k) * (-1) ** k)
                if any(acc.values()):
                    return False
        return True

    found = next((n for n in range(n_max + 1) if annihilates(n)), None)
    if found == 0 and comm:
        rep.add_uncertified("annihilation-order")
        found = None
    elif found is None:
        rep.add_cell("annihilation-order", "not found", f"<= {n_max}", FAIL)
    else:
        rep.add_cell("annihilation-order", str(found), str(found), PASS)
    rep.data["order_found"] = found
    return rep


@pytest.mark.parametrize("u", [vacuum(), H, OMEGA], ids=["1", "h", "omega"])
@pytest.mark.parametrize("v", [vacuum(), H, OMEGA], ids=["1", "h", "omega"])
def test_weak_comm_matches_the_full_box(u, v):
    # the narrowed box [-reach, window]^2 gives the same report as the
    # full +-reach square, for every window 0..6 and n_max 0..9
    for window in range(7):
        for n_max in range(10):
            got = weak_comm_check(u, v, vacuum(), window, n_max)
            want = _weak_comm_on_the_full_box(u, v, vacuum(), window, n_max)
            assert got.to_json_dict() == want.to_json_dict(), (window, n_max)


def test_int_commutator_cells_on_a_box_are_the_full_square_cut_down():
    w = mono(1) + mono(2)
    _, full = _int_commutator_cells(OMEGA, H, w, -6, 6)
    for lo, hi in ((-6, 2), (-3, 0), (-1, 4), (0, 0)):
        _, got = _int_commutator_cells(OMEGA, H, w, lo, hi)
        assert got == {cell: x for cell, x in full.items()
                       if lo <= min(cell) and max(cell) <= hi}
    assert full


def test_commutator_cells_match_oscillator_bracket():
    # residue data: [Y(h,x1), Y(h,x2)] reproduces the oscillator bracket;
    # the cell (e1, e2) carries [h(-e1-1), h(-e2-1)], so [h(m), h(-m)] = m
    # sits at (-m-1, m-1)
    w = mono(1)
    cells = commutator_cells(H, H, w, 4)
    for m in range(1, 4):
        assert cells.get((-m - 1, m - 1)) == w.scale(m)
        assert cells.get((m - 1, -m - 1)) == w.scale(-m)
    assert (0, 0) not in cells


def test_jacobi_vacuum_state_collapses():
    win = {"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3)}
    rep = jacobi_check(vacuum(), H, mono(1), win)
    assert rep.passed


def test_jacobi_small_cases():
    win = {"x0": (-4, 4), "x1": (-4, 4), "x2": (-4, 4)}
    for u in (H, OMEGA):
        for v in (H, OMEGA):
            rep = jacobi_check(u, v, vacuum(), win)
            assert rep.passed, (u, v)


def test_jacobi_inhomogeneous_states():
    win = {"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3)}
    u = H + OMEGA.scale(F(2, 3))
    rep = jacobi_check(u, H + vacuum(), mono(1), win)
    assert rep.passed


def test_dilated_jacobi_small_cases():
    win = {"x0": (-4, 4), "x1": (-4, 4), "x2": (-4, 4)}
    rep = dilated_jacobi_check(vacuum(), H, mono(1), win, 4)
    assert rep.passed
    rep = dilated_jacobi_check(H, H, vacuum(), win, 4)
    assert rep.passed
    rep = dilated_jacobi_check(OMEGA, H, mono(2), win, 4)
    assert rep.passed


def test_x_commutator_is_weight_shifted_commutator():
    u, v, w = OMEGA, H, mono(2)
    xc = x_commutator_cells(u, v, w, 4)
    yc = commutator_cells(u, v, w, 7)
    for a1 in range(-4, 5):
        for a2 in range(-4, 5):
            got = xc.get((a1, a2), FockVector())
            want = yc.get((a1 - 2, a2 - 1), FockVector())
            assert got == want


def test_dilated_residue_reproduces_x_commutator():
    from fockcalc.voa import (_compose_zhu_with_log, _dilated_lhs_cell,
                              _dilated_rhs_cell)
    u, v, w = H, H, mono(1)
    xc = x_commutator_cells(u, v, w, 4)
    g = _compose_zhu_with_log(u, v, 8)
    q_min = min(g)
    for a1 in range(-4, 5):
        for a2 in range(-4, 5):
            lhs = _dilated_lhs_cell(u, v, w, 1, -1, a1, a2)
            rhs = _dilated_rhs_cell(g, q_min, w, -1, a1, a2)
            assert lhs == rhs == xc.get((a1, a2), FockVector())


# ---------------------------------------------------------------------------
# per-check mode tables and in-place accumulation
# ---------------------------------------------------------------------------

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_vectors = st.dictionaries(st.sampled_from(basis(3)), _coeffs, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_vectors, st.one_of(st.integers(-4, 4), _coeffs)),
                max_size=6))
def test_axpy_matches_fraction_arithmetic(steps):
    # each vector on its int scale, summed by _iaxpy on the common scale
    # D, divided by D once
    vecs = [(FockVector({m: x for m, x in terms.items() if x}), F(c))
            for terms, c in steps]
    scale = lcm(*(_den(vec) * c.denominator for vec, c in vecs))
    acc, want = {}, FockVector()
    for vec, c in vecs:
        before = dict(vec.terms)
        ints = _on_scale(vec, _den(vec)).terms
        ints_before = dict(ints)
        _iaxpy(acc, ints, c.numerator
               * (scale // (_den(vec) * c.denominator)))
        assert vec.terms == before and ints == ints_before
        want = want + vec.scale(c)
    got = _off_scale(acc, scale)
    assert got == want
    assert all(type(x) is F and x for x in got.terms.values())


def _cells_in_box(rep, box):
    """{key: (lhs, rhs, status)} of the listed cells inside box."""
    out = {}
    for cell in rep.cells:
        exps = [int(part.split("^")[1]) for part in cell.key.split()]
        if all(lo <= e <= hi for e, (lo, hi) in zip(exps, box)):
            out[cell.key] = (cell.lhs, cell.rhs, cell.status)
    return out


def _dilated(ydeg):
    return lambda u, v, w, win: dilated_jacobi_check(u, v, w, win, ydeg)


_STATES = [(OMEGA, H, mono(2)),
           (H + OMEGA.scale(F(2, 3)), OMEGA, mono(1, 1))]


@pytest.mark.parametrize("check", [jacobi_check, _dilated(2)],
                         ids=["jacobi", "dilated"])
@pytest.mark.parametrize("u, v, w", _STATES)
def test_enlarged_window_keeps_certified_cells(check, u, v, w):
    # the dilated composition order grows with the top of the x0 window,
    # so a wider box must still leave the smaller box's cells as they were
    small = {"x0": (-2, 2), "x1": (-2, 2), "x2": (-2, 2)}
    large = {"x0": (-3, 4), "x1": (-4, 3), "x2": (-3, 3)}
    box = [small[x] for x in ("x0", "x1", "x2")]
    rep_small = check(u, v, w, small)
    rep_large = check(u, v, w, large)
    cells = _cells_in_box(rep_small, box)
    assert len(cells) == len(rep_small.cells) > 0
    assert _cells_in_box(rep_large, box) == cells
    assert rep_small.passed and rep_large.passed


@pytest.mark.parametrize("u, v, w", _STATES)
def test_larger_ydeg_keeps_dilated_cells(u, v, w):
    # ydeg only floors the composition order, r_order = max(ydeg, top of
    # x0 + wt u + wt v + 1): 4 stays below that order on this box and 9
    # lies above it, and neither may change a cell
    win = {"x0": (-2, 2), "x1": (-2, 2), "x2": (-2, 2)}
    base = dilated_jacobi_check(u, v, w, win, 2)
    assert base.cells and base.passed
    for ydeg in (4, 9):
        rep = dilated_jacobi_check(u, v, w, win, ydeg)
        assert rep.cells == base.cells, ydeg
        assert rep.bulk_passed == base.bulk_passed, ydeg


@pytest.mark.parametrize("check", [jacobi_check, _dilated(2)],
                         ids=["jacobi", "dilated"])
def test_mode_tables_leave_shared_cache_intact(check):
    u, v, w = OMEGA, H + vacuum(), mono(2, 1)
    win = {"x0": (-2, 2), "x1": (-2, 2), "x2": (-2, 2)}
    check(u, v, w, win)
    fixed = _mode_mon((1, 1), -2, (2, 1))
    before = dict(fixed.terms)
    assert len(before) > 1
    hot = check(u, v, w, win).to_json_dict()
    assert _mode_mon((1, 1), -2, (2, 1)) is fixed
    assert fixed.terms == before
    _mode_mon.cache_clear()
    cold = check(u, v, w, win).to_json_dict()
    assert hot == cold
    assert _mode_mon((1, 1), -2, (2, 1)).terms == before


@pytest.mark.parametrize("check", [jacobi_check, _dilated(4)],
                         ids=["jacobi", "dilated"])
def test_mode_tables_are_freed_with_their_check(check):
    # no reference cycle may keep a check's tables alive after it returns
    win = {"x0": (-3, 3), "x1": (-3, 3), "x2": (-3, 3)}
    check(OMEGA, H, mono(2, 1), win)
    gc.collect()
    gc.disable()
    try:
        check(OMEGA, H, mono(2, 1), win)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# integer mode tables
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _mode_mon_by_h_apply(state, n, target):
    """The creation/annihilation recursion through ``h_apply`` and
    Fraction vectors: the oracle for the int tables of ``_mode_mon``."""
    if not state:
        return FockVector({target: F(1)}) if n == -1 else FockVector()
    k, rest = state[0], state[1:]
    acc = FockVector()
    for m in range(n - k - (sum(rest) + sum(target) - 1), 0):
        inner = _mode_mon_by_h_apply(rest, n - m - k, target)
        acc = acc + h_apply(m, inner).scale(comb_int(-m - 1, k - 1))
    for m in range(1, sum(target) + 1):
        hit = h_apply(m, FockVector({target: F(1)}))
        for mon2, c2 in hit.terms.items():
            inner = _mode_mon_by_h_apply(rest, n - m - k, mon2)
            acc = acc + inner.scale(c2 * comb_int(-m - 1, k - 1))
    return acc


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(basis(4)), st.integers(-8, 8),
       st.sampled_from(basis(4)))
def test_mode_tables_match_h_apply_recursion(state, n, target):
    got = _mode_mon(state, n, target)
    assert got == _mode_mon_by_h_apply(state, n, target)
    assert all(type(c) is int and c for c in got.terms.values())


def test_mode_tables_are_read_only():
    table = _mode_mon((2, 1), -3, (1, 1))
    assert table.terms
    with pytest.raises(TypeError):
        table.terms[(9,)] = 1
    with pytest.raises(TypeError):
        del table.terms[next(iter(table.terms))]


def test_axiom_suite_same_on_hot_and_cold_cache():
    hot = axiom_suite(3, 4).to_json_dict()
    assert axiom_suite(3, 4).to_json_dict() == hot
    _mode_mon.cache_clear()
    assert axiom_suite(3, 4).to_json_dict() == hot


def test_compose_is_shared_by_every_w_of_a_pair(capsys):
    # one change-of-variables expansion per (u, v) pair, not per w
    voa._compose_zhu_frozen.cache_clear()
    try:
        assert cli.main(["verify-thm42", "--weight", "1", "--window", "1",
                         "--ydeg", "1"]) == 0
        built = voa._compose_zhu_frozen.cache_info().misses
    finally:
        voa._compose_zhu_frozen.cache_clear()
    capsys.readouterr()
    assert built == 9
    g = _compose_zhu_with_log(OMEGA, H, 5)
    assert _compose_zhu_with_log(OMEGA.scale(1), H.scale(1), 5) is g
    with pytest.raises(TypeError):
        g[99] = FockVector()
    with pytest.raises(TypeError):
        next(iter(g.values())).terms[(9,)] = F(1)


def test_check_orders_renders_both_sides_of_an_unequal_cell(monkeypatch):
    # a passing cell renders its vector once; a failing one renders both;
    # a cell zero on both sides, or below the weight bound, is bulk.  The
    # sides are int term maps on the scale 2, zero entries dropped.
    from types import SimpleNamespace

    from fockcalc import report
    from fockcalc.report import FAIL, PASS, VerificationReport

    rendered = []
    real = report._int_str
    monkeypatch.setattr(report, "_int_str", lambda terms, den, memo: (
        rendered.append(dict(terms)) or real(terms, den, memo)))
    h, two = {(1,): 2}, {(2,): 2}
    # the (u, v) cell (0, 0, a2) sums the half sums (False, 0, a2) and
    # (True, a2, 0); at a2 = 2 they cancel
    halves = {(False, 0, 0): h, (False, 0, 1): h, (False, 0, 2): {(1,): 1},
              (True, 2, 0): {(1,): -1}}
    rhs = [{**h, (3,): 0}, {**two, (3,): 0}, {}]
    asked = []
    monkeypatch.setattr(voa, "_slice_half_sums", lambda tab, a0: (
        lambda swap, b1, b2: asked.append(b1 + b2) or halves.get(
            (swap, b1, b2), {})))
    rep = VerificationReport(identity="box", parameters={})
    # top = -1: the cell a2 = -1 vanishes by weight and is never summed
    box = {"x0": (0, 0), "x1": (0, 0), "x2": (-1, 2)}
    sides = [(rep, lambda a0, a1: [(7, 1)],
              lambda i, e: asked.append(e) or FockVector(rhs[e]))]
    assert voa._check_orders(SimpleNamespace(same=False), box, -1, 2,
                             sides) == [rep]
    assert [(c.key, c.lhs, c.rhs, c.status) for c in rep.cells] == [
        ("x0^0 x1^0 x2^0", "1*[1]", "1*[1]", PASS),
        ("x0^0 x1^0 x2^1", "1*[1]", "1*[2]", FAIL),
    ]
    assert rendered == [h, h, two]
    assert -1 not in asked
    # the merge copies: a half sum stays as it was summed
    assert halves[False, 0, 2] == {(1,): 1}
    assert rep.bulk_passed == 2
    assert not rep.passed


def test_failing_axiom_cell_renders_both_sides(monkeypatch):
    # a passing axiom cell renders its vector once; a failing one must
    # still show both sides
    from fockcalc.report import FAIL, PASS

    real = voa.L_apply
    monkeypatch.setattr(voa, "L_apply", lambda n, w: (
        real(n, w).scale(2) if n == 0 else real(n, w)))
    rep = axiom_suite(2, 2)
    cell = next(c for c in rep.cells if c.key == "omega-mode n=0 w=[2]")
    assert (cell.lhs, cell.rhs, cell.status) == ("2*[2]", "4*[2]", FAIL)
    failed = [c.key for c in rep.cells if c.status == FAIL]
    assert failed == [f"omega-mode n=0 w={list(m)}" for m in basis(2) if m]
    assert all(c.lhs == c.rhs for c in rep.cells if c.status == PASS)
    assert not rep.passed
