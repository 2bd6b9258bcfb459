"""The pair engine of the delta-kernel identities against the per-cell
oracle of ``test_jacobi_ints``.

``jacobi_pair_checks`` and ``dilated_jacobi_pair_checks`` check the
(u, v) and the (v, u) identity from one table set, each product-term
half sum summed once for both orders.  Each of their reports must list
the cells, strings and verdicts that the Fraction reference gives for its
own order, and the same number of bulk cells, on boxes whose x1 and x2
windows are equal and on boxes where they differ, so that the swapped
cell (a0, a2, a1) of a listed cell lies outside the box.
"""

import functools
import json
from fractions import Fraction as F

import pytest

from fockcalc import cli, voa
from fockcalc.fock import FockVector, basis, fock_str, vacuum
from fockcalc.report import FAIL, PASS
from fockcalc.voa import (VOAConstants, dilated_jacobi_check,
                          dilated_jacobi_pair_checks, jacobi_check,
                          jacobi_pair_checks)
from test_jacobi_ints import (YDEG, _RefTables, _ref_compose_zhu,
                              _ref_dilated_rhs_cell, _ref_jacobi_rhs_cell,
                              _ref_lhs_cell, _ref_mode_apply, _ref_X_apply)

H = FockVector({(1,): F(1)})
# Fraction-valued states; h + 1 mixes the weights 0 and 1
STATES = {"1": vacuum(), "h": H, "omega": VOAConstants.omega(),
          "h+1": FockVector({(1,): F(1), (): F(1)})}
W_BASIS = [FockVector({mon: F(1)}) for mon in basis(2)]
WINDOWS = {
    "equal": {x: (-2, 2) for x in ("x0", "x1", "x2")},
    # (a0, a2, a1) leaves the box for a1 outside x2's window
    "unequal": {"x0": (-2, 2), "x1": (-2, 3), "x2": (-1, 1)},
}
PAIRS = [(a, b) for i, a in enumerate(STATES) for b in list(STATES)[i:]]


@functools.cache
def _ref_g(uname, vname, r_order):
    return _ref_compose_zhu(STATES[uname], STATES[vname], r_order)


def _ref_report(identity, uname, vname, w, windows):
    """(cells, bulk) of the (u, v) check from the per-cell reference:
    cells as (key, lhs, rhs, status) in box order."""
    u, v = STATES[uname], STATES[vname]
    wu, wv, ww = u.max_weight(), v.max_weight(), w.max_weight()
    if identity == "jacobi":
        tab = _RefTables(lambda s, e, t: _ref_mode_apply(s, -e - 1, t),
                         u, v, w, wu + ww, wv + ww)
        uv = functools.cache(lambda j: _ref_mode_apply(u, j, v))
        iterate = functools.cache(lambda j, m: _ref_mode_apply(uv(j), m, w))

        def rhs(a0, a1, a2):
            return _ref_jacobi_rhs_cell(uv, iterate, wu + wv, a0, a1, a2)
    else:
        tab = _RefTables(lambda s, e, t: _ref_X_apply(s, t, -e),
                         u, v, w, ww, ww)
        g = _ref_g(uname, vname, max(YDEG, windows["x0"][1] + wu + wv + 1))
        gw = functools.cache(lambda q, c: _ref_X_apply(g[q], w, -c))

        def rhs(a0, a1, a2):
            return _ref_dilated_rhs_cell(g, min(g, default=0), gw,
                                         a0, a1, a2)
    cells, bulk = [], 0
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = (windows[x] for x in
                                          ("x0", "x1", "x2"))
    for a0 in range(lo0, hi0 + 1):
        for a1 in range(lo1, hi1 + 1):
            for a2 in range(lo2, hi2 + 1):
                if wu + wv + ww + a0 + a1 + a2 + 1 < 0:
                    bulk += 1
                    continue
                lhs, rhs_ = _ref_lhs_cell(tab, a0, a1, a2), rhs(a0, a1, a2)
                if lhs or rhs_:
                    lt, rt = fock_str(lhs), fock_str(rhs_)
                    cells.append((f"x0^{a0} x1^{a1} x2^{a2}", lt, rt,
                                  PASS if lt == rt else FAIL))
                else:
                    bulk += 1
    return cells, bulk


def _got(rep):
    return [(c.key, c.lhs, c.rhs, c.status) for c in rep.cells], \
        rep.bulk_passed


_PAIR_CHECKS = {
    "jacobi": jacobi_pair_checks,
    "dilated": lambda u, v, w, win: dilated_jacobi_pair_checks(u, v, w, win,
                                                               YDEG),
}
_CHECKS = {
    "jacobi": jacobi_check,
    "dilated": lambda u, v, w, win: dilated_jacobi_check(u, v, w, win, YDEG),
}


@pytest.mark.parametrize("pair", PAIRS, ids="-".join)
@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("identity", sorted(_PAIR_CHECKS))
def test_pair_reports_match_the_per_cell_oracle(identity, window, pair):
    uname, vname = pair
    u, v = STATES[uname], STATES[vname]
    windows = WINDOWS[window]
    listed = 0
    for w in W_BASIS:
        uv, vu = _PAIR_CHECKS[identity](u, v, w, windows)
        assert uv is not vu
        want_uv = _ref_report(identity, uname, vname, w, windows)
        want_vu = _ref_report(identity, vname, uname, w, windows)
        assert _got(uv) == want_uv, (w, "u, v")
        assert _got(vu) == want_vu, (w, "v, u")
        # the one-order checks run the same engine
        assert _got(_CHECKS[identity](u, v, w, windows)) == want_uv
        assert uv.passed and vu.passed
        listed += len(uv.cells) + len(vu.cells)
    assert listed


@pytest.mark.parametrize("identity", sorted(_PAIR_CHECKS))
def test_pair_engine_on_off_scale_states_raises(identity, monkeypatch):
    # den(w) left out of the scale puts w's entries off it: both orders'
    # checks must refuse, not floor them onto the scale
    w = FockVector({(2,): F(1, 3), (1, 1): F(-1, 2)})
    real = voa._den
    monkeypatch.setattr(voa, "_den", lambda vec: 1 if vec is w else real(vec))
    win = {x: (-1, 1) for x in ("x0", "x1", "x2")}
    with pytest.raises(ValueError, match="not a multiple of 1/"):
        _PAIR_CHECKS[identity](STATES["omega"], H, w, win)


def test_dilated_pair_g_off_the_scale_raises(monkeypatch):
    # a change-of-variables state off the scale den(u) den(v) raises for
    # either order
    real = voa._compose_zhu_with_log

    def seventh(u, v, r_order):
        return {q: g.scale(F(1, 7)) for q, g in real(u, v, r_order).items()}

    monkeypatch.setattr(voa, "_compose_zhu_with_log", seventh)
    win = {x: (-1, 1) for x in ("x0", "x1", "x2")}
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        dilated_jacobi_pair_checks(STATES["omega"], H, W_BASIS[1], win, YDEG)


@pytest.mark.parametrize("command,check", [
    ("verify-jacobi", lambda u, v, w, win: jacobi_check(u, v, w, win)),
    ("verify-thm42 --ydeg 2",
     lambda u, v, w, win: dilated_jacobi_check(u, v, w, win, 2)),
])
def test_cli_lists_every_ordered_pair_under_its_own_label(command, check,
                                                          capsys):
    # repeated and unordered states: each ordered pair of positions lists
    # the cells of its own check, in the order of the positions
    names = ["omega", "h", "1", "h"]
    assert cli.main(["--format", "json", *command.split(), "--states",
                     *names, "--weight", "1", "--window", "1"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    win = {x: (-1, 1) for x in ("x0", "x1", "x2")}
    want = []
    for uname in names:
        for vname in names:
            for mon in basis(1):
                label = f"u={uname} v={vname} w={list(mon)}"
                rep = check(STATES[uname], STATES[vname],
                            FockVector({mon: F(1)}), win)
                want.extend((f"{label} | {c.key}", c.lhs, c.rhs)
                            for c in rep.cells)
    assert [(c["key"], c["lhs"], c["rhs"]) for c in cells] == want


@pytest.mark.parametrize("names,checks,pair_checks", [
    (["h", "h"], 1, 0),
    (["omega", "h", "1", "h"], 3, 3),
])
@pytest.mark.parametrize("command,prefix", [
    ("verify-jacobi", ""), ("verify-thm42 --ydeg 2", "dilated_")])
def test_cli_checks_each_distinct_pair_of_names_once(
        command, prefix, names, checks, pair_checks, monkeypatch, capsys):
    # a repeated name is checked once per w and listed under every
    # ordered pair of positions it takes, the same cells under each label
    calls = []
    for name in (f"{prefix}jacobi_check", f"{prefix}jacobi_pair_checks"):
        monkeypatch.setattr(cli, name, lambda *a, _real=getattr(cli, name),
                            _name=name: calls.append(_name) or _real(*a))
    assert cli.main(["--format", "json", *command.split(), "--states",
                     *names, "--weight", "1", "--window", "1"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    n_w = len(basis(1))
    assert sorted(calls) == sorted(
        [f"{prefix}jacobi_check"] * (checks * n_w)
        + [f"{prefix}jacobi_pair_checks"] * (pair_checks * n_w))
    by_label = {}
    for c in cells:
        label, key = c["key"].split(" | ")
        by_label.setdefault(label, []).append((key, c["lhs"], c["rhs"]))
    labels = [f"u={u} v={v} w={list(mon)}" for u in names for v in names
              for mon in basis(1)]
    assert by_label
    for label, got in by_label.items():
        times = labels.count(label)
        size = len(got) // times
        assert got == got[:size] * times, label
