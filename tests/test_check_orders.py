"""The delta-kernel cell loop against the loop it replaced, and the
shared tables it reads left as they were.

``voa._check_orders`` starts each sum from a copy of its first nonempty
table, and a left side whose first half sum is empty is the second half
itself or its negation.  Every listed cell, bulk count and summary of
both orders must match ``reference_check_orders``, which sums every side
into {}, for both identities, windows 2 and 3, every (u, v) of
``ZHU_STATES`` x ``W_STATES`` and every w of ``W_STATES``.  The product,
half-sum and iterate tables a check reads are cached and shared by many
cells, so none of them may change while the check runs.
"""

import pytest

from check_orders_reference import reference_check_orders
from fockcalc import voa
from fockcalc.fock import FockVector
from fockcalc.voa import (dilated_jacobi_pair_checks, jacobi_check,
                          jacobi_pair_checks)
from test_jacobi_ints import W_STATES, YDEG, ZHU_STATES

_CHECKS = {
    "jacobi": jacobi_pair_checks,
    "dilated": lambda u, v, w, win: dilated_jacobi_pair_checks(u, v, w, win,
                                                               YDEG),
}


def _windows(box):
    return {x: (-box, box) for x in ("x0", "x1", "x2")}


def _reports(check, u, v, w, windows):
    return [([(c.key, c.lhs, c.rhs, c.status) for c in rep.cells],
             rep.bulk_passed, rep.counts)
            for rep in check(u, v, w, windows)]


@pytest.mark.parametrize("box", [2, 3])
@pytest.mark.parametrize("identity", sorted(_CHECKS))
@pytest.mark.parametrize("ui", range(len(ZHU_STATES)))
def test_cells_match_the_empty_dict_loop(ui, identity, box, monkeypatch):
    check, u, windows = _CHECKS[identity], ZHU_STATES[ui], _windows(box)
    listed = 0
    for v in W_STATES:
        for w in W_STATES:
            got = _reports(check, u, v, w, windows)
            with monkeypatch.context() as m:
                m.setattr(voa, "_check_orders", reference_check_orders)
                want = _reports(check, u, v, w, windows)
            assert got == want, (v, w)
            listed += sum(len(cells) for cells, _, _ in got)
    assert listed


def _recorder(fn, seen):
    """fn, with each table it returns (a term map, or a vector's terms)
    kept in seen with a copy taken when it is first handed out."""
    def read(*args):
        got = fn(*args)
        terms = got.terms if isinstance(got, FockVector) else got
        seen.setdefault(id(terms), (terms, dict(terms)))
        return got
    return read


def test_shared_tables_are_never_written(monkeypatch):
    products, halves, iterates = {}, {}, {}
    real_orders, real_halves = voa._check_orders, voa._slice_half_sums

    def spy(tab, windows, top, den, sides):
        for name in ("uw", "vw", "u_vw", "v_uw"):
            setattr(tab, name, _recorder(getattr(tab, name), products))
        return real_orders(tab, windows, top, den, [
            (rep, terms, _recorder(table, iterates))
            for rep, terms, table in sides])
    monkeypatch.setattr(voa, "_check_orders", spy)
    monkeypatch.setattr(voa, "_slice_half_sums", lambda tab, a0: _recorder(
        real_halves(tab, a0), halves))
    windows, w = _windows(3), W_STATES[-1]
    reps = []
    for u in ZHU_STATES:
        reps.append(jacobi_check(u, u, w, windows))
        for v in W_STATES:
            reps += jacobi_pair_checks(u, v, w, windows)
            reps += dilated_jacobi_pair_checks(u, v, w, windows, YDEG)
    for seen in (products, halves, iterates):
        assert seen
        assert all(dict(terms) == first for terms, first in seen.values())
    assert all(rep.passed for rep in reps)
