"""The iterate term of the dilated Jacobi identity from shared direction
tables, against the per-(q, e) X tables it replaced.

``voa._dilated_rhs`` splits each weight-a component of a change-of-
variables state den g_q into k p, p primitive, and fills one table
mode_apply(p, a - e - 2, w) per distinct (a, p) and e.  The reference
below is the code it replaced: one ``_x_coef`` table per (q, e), built
from the whole weight field of g_q.  Every table(q, e), every terms list
and every listed cell must match it, on 1, h, omega and two mixed-weight
Fraction states, and every cell of the box must be counted.
A spy on ``mode_apply`` checks that each shared table is filled once.
"""

import functools
import itertools
import sys
import types

import pytest

from fockcalc import voa
from fockcalc.fock import FockVector, _den, _on_scale, basis
from fockcalc.series import comb_int
from fockcalc.voa import (VOAConstants, _compose_zhu_with_log, _weight_field,
                          _x_coef, dilated_jacobi_check,
                          dilated_jacobi_pair_checks)
from test_jacobi_ints import (BOX, W_STATES, YDEG, ZHU_STATES, _WINDOWS,
                              _listed_cells, _ref_dilated, _reference_cells)

# 1, h and omega; then two Fraction states that mix weights 1 and 3,
# and 0, 2 and 3
STATES = dict(zip(("1", "h", "omega", "mixed-1-3", "mixed-0-2-3"),
                  ZHU_STATES[:3] + ZHU_STATES[-2:]))
MIXED = {"mixed-1-3", "mixed-0-2-3"}
PAIRS = list(itertools.product(sorted(STATES), repeat=2))
E_RANGE = range(-3 * BOX - 2, 3 * BOX + 3)


def _ref_dilated_rhs(g_by_q, q_min, den, w):
    """The per-(q, e) tables: table(q, e) is ``_x_coef`` of the whole
    weight field of g_q on the scale den, at x^(e + 1)."""
    field = functools.cache(lambda q: _weight_field(g_by_q[q], den))

    def terms(a0, a1):
        n = a0 + a1
        kmax = a0 - q_min if n < 0 else min(a0 - q_min, n)
        return [(a0 - k, c) for k in range(kmax + 1)
                if (c := comb_int(n, k) * (-1) ** k) and a0 - k in g_by_q]
    return terms, functools.cache(lambda q, e: _x_coef(field(q), e + 1, w))


def _rhs_args(u, v, w):
    """The arguments ``_dilated_reports`` gives ``_dilated_rhs`` for the
    (u, v) order on the box of ``test_jacobi_ints``."""
    r_order = max(YDEG, BOX + u.max_weight() + v.max_weight() + 1)
    g_by_q = _compose_zhu_with_log(u, v, r_order)
    return (g_by_q, min(g_by_q, default=0), _den(u) * _den(v),
            _on_scale(w, _den(w)))


@pytest.mark.parametrize("uname,vname", PAIRS)
def test_tables_match_the_per_q_x_tables(uname, vname):
    u, v = STATES[uname], STATES[vname]
    compared = 0
    for w in W_STATES:
        args = _rhs_args(u, v, w)
        terms, table = voa._dilated_rhs(*args)
        want_terms, want = _ref_dilated_rhs(*args)
        for q in args[0]:
            for e in E_RANGE:
                got = table(q, e)
                assert got == want(q, e), (w, q, e)
                assert all(type(c) is int and c for c in got.terms.values())
                compared += bool(got)
        for a0 in range(-BOX, BOX + 1):
            for a1 in range(-BOX, BOX + 1):
                assert terms(a0, a1) == want_terms(a0, a1)
    assert compared


def _reports(u, v, w):
    reps = dilated_jacobi_pair_checks(u, v, w, _WINDOWS, YDEG)
    return [(rep.cells, rep.bulk_passed, rep.counts) for rep in reps]


@pytest.mark.parametrize("uname,vname", PAIRS)
def test_listed_cells_match_the_per_q_x_tables(uname, vname, monkeypatch):
    u, v = STATES[uname], STATES[vname]
    for w in W_STATES:
        got = _reports(u, v, w)
        with monkeypatch.context() as m:
            m.setattr(voa, "_dilated_rhs", _ref_dilated_rhs)
            want = _reports(u, v, w)
        assert got == want, w
        # every cell of the box is listed or counted as a bulk pass
        assert all(counts["total"] == len(range(-BOX, BOX + 1)) ** 3
                   for _, _, counts in got)


@pytest.mark.parametrize("uname,vname",
                         [pair for pair in PAIRS if MIXED & set(pair)])
def test_mixed_weight_cells_match_fraction_cells(uname, vname):
    # test_jacobi_ints compares the cells of 1, h and omega with the
    # Fraction reference; these states put several weight components
    # and proper Fractions into the g_q
    u, v = STATES[uname], STATES[vname]
    for w in W_STATES:
        rep = dilated_jacobi_check(u, v, w, _WINDOWS, YDEG)
        want = _reference_cells(_ref_dilated(u, v, w))
        assert _listed_cells(rep) == want, w


def test_each_shared_table_is_filled_once(monkeypatch):
    # the fills are the mode_apply calls made by the functions defined
    # inside _dilated_rhs; each (p, mode index) is one (id, e) table
    inner = {c for c in voa._dilated_rhs.__code__.co_consts
             if isinstance(c, types.CodeType)}
    real = voa.mode_apply
    fills = []

    def spy(state, n, w):
        if sys._getframe(1).f_code in inner:
            fills.append((tuple(sorted(state.terms.items())), n,
                          tuple(sorted(w.terms.items()))))
        return real(state, n, w)
    monkeypatch.setattr(voa, "mode_apply", spy)
    omega = VOAConstants.omega()
    for mon in basis(2):
        fills.clear()
        rep = dilated_jacobi_check(omega, omega, FockVector({mon: 1}),
                                   _WINDOWS, YDEG)
        assert rep.passed
        assert fills, mon
        assert len(fills) == len(set(fills)), mon
