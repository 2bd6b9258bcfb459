"""The axiom suite and the weak-commutativity check on integer scales,
against the Fraction code they replaced.

The reference below is the Fraction form of ``axiom_suite`` (every cell
built from Fraction vectors, compared with ``==`` and rendered with
``fock_str``) and of ``weak_comm_check`` (the (x1-x2)^n combination
summed as Fraction vectors).  The int suite must give the same report,
cell for cell and string for string, with a cold and with a hot
``_mode_mon``; the guards below show that a value off an int scale
raises instead of being floored onto it.
"""

import contextlib
import functools
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fockcalc import cli, voa
from fockcalc.fock import FockVector, fock_str, vacuum, weight_basis
from fockcalc.quadratic import L_apply
from fockcalc.report import PASS, VerificationReport
from fockcalc.series import comb_int
from fockcalc.voa import (VOAConstants, _mode_mon, axiom_suite,
                          commutator_cells, mode_apply, weak_comm_check)
from fock_reference import monomial

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
H = FockVector({(1,): Fraction(1)})
OMEGA = VOAConstants.omega()


def _ref_add_vector_cell(rep, key, lhs, rhs):
    """Add the cell lhs = rhs; equal vectors render to one string."""
    text = fock_str(lhs)
    rep.add_cell(key, text, text if lhs == rhs else fock_str(rhs))


def _ref_axiom_suite(max_weight, mode_window):
    rep = VerificationReport(
        identity="voa-axioms",
        parameters={"max_weight": max_weight, "mode_window": mode_window},
    )
    mons = [m for w in range(max_weight + 1) for m in weight_basis(w)]
    vecs = {m: FockVector({m: Fraction(1)}) for m in mons}
    one = vacuum()
    omega = VOAConstants.omega()

    for m in mons:
        for n in range(-mode_window, mode_window + 1):
            got = mode_apply(one, n, vecs[m])
            want = vecs[m] if n == -1 else FockVector()
            if got or want:
                _ref_add_vector_cell(rep, f"vacuum-op n={n} w={list(m)}",
                                     got, want)
            else:
                rep.bulk_passed += 1

    for m in mons:
        for n in range(0, mode_window + 1):
            got = mode_apply(vecs[m], n, one)
            if got:
                rep.add_cell(f"creation v={list(m)} n={n}", fock_str(got), "0")
            else:
                rep.bulk_passed += 1
        _ref_add_vector_cell(rep, f"creation-constant v={list(m)}",
                             mode_apply(vecs[m], -1, one), vecs[m])

    for mu in mons:
        for mv in mons:
            bound = sum(mu) + sum(mv) - 1
            for n in range(bound + 1, mode_window + 2 * max_weight + 1):
                got = _mode_mon(mu, n, mv)
                if got:
                    rep.add_cell(f"truncation u={list(mu)} v={list(mv)} n={n}",
                                 fock_str(got), "0")
                else:
                    rep.bulk_passed += 1

    def lw(n, w):
        return mode_apply(omega, n + 1, w)

    lw_basis = functools.cache(lambda n, m: lw(n, vecs[m]))

    for m in mons:
        _ref_add_vector_cell(rep, f"grading w={list(m)}", lw_basis(0, m),
                             vecs[m].scale(sum(m)))

    for mm in range(-mode_window, mode_window + 1):
        for nn in range(-mode_window, mode_window + 1):
            for m in mons:
                w = vecs[m]
                lhs = lw(mm, lw_basis(nn, m)) - lw(nn, lw_basis(mm, m))
                rhs = lw_basis(mm + nn, m).scale(mm - nn)
                if mm + nn == 0:
                    rhs = rhs + w.scale(
                        Fraction(mm ** 3 - mm, 12) * VOAConstants.rank)
                if lhs or rhs:
                    _ref_add_vector_cell(
                        rep, f"virasoro m={mm} n={nn} w={list(m)}", lhs, rhs)
                else:
                    rep.bulk_passed += 1

    for n in range(-mode_window, mode_window + 1):
        for m in mons:
            got = lw_basis(n, m)
            want = L_apply(n, vecs[m])
            if got or want:
                _ref_add_vector_cell(rep, f"omega-mode n={n} w={list(m)}",
                                     got, want)
            else:
                rep.bulk_passed += 1

    for m in mons:
        lv = lw_basis(-1, m)
        for n in range(-mode_window, mode_window + 1):
            for mw in mons:
                got = mode_apply(lv, n, vecs[mw])
                want = _mode_mon(m, n - 1, mw).scale(-n)
                if got or want:
                    _ref_add_vector_cell(
                        rep, f"derivative v={list(m)} n={n} w={list(mw)}",
                        got, want)
                else:
                    rep.bulk_passed += 1
    return rep


def _ref_commutator_cells(u, v, w, window):
    cells = {}
    for e1 in range(-window, window + 1):
        for e2 in range(-window, window + 1):
            val = (mode_apply(u, -e1 - 1, mode_apply(v, -e2 - 1, w))
                   - mode_apply(v, -e2 - 1, mode_apply(u, -e1 - 1, w)))
            if val:
                cells[(e1, e2)] = val
    return cells


def _ref_weak_comm_order(u, v, w, window, n_max):
    comm = _ref_commutator_cells(u, v, w, window + n_max)
    for n in range(n_max + 1):
        if not any(
                sum((comm.get((a1 - (n - k), a2 - k), FockVector()).scale(
                    comb_int(n, k) * (-1) ** k) for k in range(n + 1)),
                    FockVector())
                for a1 in range(-window, window + 1)
                for a2 in range(-window, window + 1)):
            return n
    return None


@pytest.mark.parametrize("max_weight, mode_window",
                         [(0, 0), (1, 2), (2, 3), (3, 4)])
def test_axiom_suite_matches_fraction_reference(max_weight, mode_window):
    _mode_mon.cache_clear()
    cold = axiom_suite(max_weight, mode_window).to_json_dict()
    hot = axiom_suite(max_weight, mode_window).to_json_dict()
    ref = _ref_axiom_suite(max_weight, mode_window).to_json_dict()
    assert cold == ref
    assert hot == ref
    assert ref["summary"]["failed"] == 0


def test_grading_of_the_vacuum_is_a_listed_cell():
    # grading w=[] is 0 = 0 but still listed, as every grading cell is
    cells = {c.key: c for c in axiom_suite(1, 1).cells}
    cell = cells["grading w=[]"]
    assert (cell.lhs, cell.rhs, cell.status) == ("0", "0", PASS)


def test_central_term_off_the_scale_raises(monkeypatch):
    # 4 rank (m^3 - m) / 12 is not an int for rank 1/7: the suite must
    # refuse it rather than floor it onto the scale 4
    monkeypatch.setattr(VOAConstants, "rank", Fraction(1, 7))
    with pytest.raises(ValueError, match="not on the int scale"):
        axiom_suite(2, 3)


def test_omega_mode_side_off_the_scale_raises(monkeypatch):
    real = voa.L_apply
    monkeypatch.setattr(voa, "L_apply",
                        lambda n, w: real(n, w).scale(Fraction(1, 3)))
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        axiom_suite(2, 2)


@pytest.mark.parametrize("u, v, w", [
    (H, H, vacuum()),
    (OMEGA, OMEGA, vacuum()),
    (OMEGA, H, FockVector({monomial([2]): Fraction(1, 3),
                           monomial([1, 1]): Fraction(-1, 2)})),
])
def test_commutator_cells_match_fraction_reference(u, v, w):
    assert commutator_cells(u, v, w, 4) == _ref_commutator_cells(u, v, w, 4)


@pytest.mark.parametrize("u, v, w, window, n_max", [
    (H, H, vacuum(), 3, 4),
    (vacuum(), OMEGA, vacuum(), 3, 4),
    (OMEGA, OMEGA, vacuum(), 4, 6),
    (OMEGA, H, FockVector({monomial([2]): Fraction(1, 3)}), 3, 5),
    # no order within n_max: the check must report not found
    (OMEGA, OMEGA, vacuum(), 3, 2),
])
def test_weak_comm_order_matches_fraction_reference(u, v, w, window, n_max):
    found = weak_comm_check(u, v, w, window, n_max).data["order_found"]
    assert found == _ref_weak_comm_order(u, v, w, window, n_max)


@pytest.mark.parametrize("command", [
    "verify-axioms --weight 5 --mode-window 8",
    "verify-axioms --weight 2 --mode-window 3",
])
def test_axioms_output_matches_benchmark_digest(command):
    # the benchmark's own recorded digest, so the W=5 scale it runs is
    # covered byte for byte
    want = json.loads(EXPECTED.read_text())[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json"] + command.split())
    data = out.getvalue().encode()
    assert code == want["exit"]
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
