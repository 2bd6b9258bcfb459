"""The mode actions, the change-of-variables states and the Jacobi cells
on one integer scale, against the Fraction code they replaced.

The reference below is the Fraction form of the mode actions, of the
change-of-variables operator and its ratio expansion, and of the cell
functions: ``_mode_mon`` tables and series coefficients summed as plain
Fractions.  ``mode_apply``, ``X_apply``, ``zhu_bracket_apply`` and
``_compose_zhu_with_log`` must match it on every state, and every cell of
both identities must render to the same strings and the same verdict,
with every unlisted cell zero on both sides.
"""

import functools
from fractions import Fraction as F
from math import factorial

import pytest

from fockcalc import voa
from fockcalc.exact import PowerSeries, _add_into
from fockcalc.fock import (FockVector, _off_scale, _on_scale, basis,
                           fock_str, vacuum)
from fockcalc.report import FAIL, PASS
from fockcalc.series import MultiSeries, comb_int, window_var
from fockcalc.voa import (VOAConstants, X_apply, _compose_zhu_with_log,
                          _mode_mon, dilated_jacobi_check, jacobi_check,
                          mode_apply, zhu_bracket_apply)
from fock_reference import monomial

H = FockVector({(1,): F(1)})
OMEGA = VOAConstants.omega()
STATES = {"1": vacuum(), "h": H, "omega": OMEGA}
# basis(2) has only unit coefficients; the last two states give den(w) > 1
W_STATES = ([FockVector({mon: F(1)}) for mon in basis(2)]
            + [OMEGA, FockVector({monomial([2]): F(1, 3),
                                  monomial([1, 1]): F(-1, 2)})])
BOX = 3
YDEG = 3


def _add_scaled(acc, vec, c):
    """acc += c * vec as plain Fractions, zero sums dropped."""
    if c:
        for mon, x in vec.terms.items():
            _add_into(acc, mon, x * F(c))


def _ref_mode_apply(state, n, w):
    acc = {}
    for smon, sc in state.terms.items():
        for wmon, wc in w.terms.items():
            _add_scaled(acc, _mode_mon(smon, n, wmon), sc * wc)
    return FockVector(acc)


def _ref_X_apply(v, w, n):
    acc = {}
    for a, comp in v.weight_components():
        _add_scaled(acc, _ref_mode_apply(comp, a + n - 1, w), 1)
    return FockVector(acc)


MODE_STATES = list(STATES.values()) + W_STATES + [
    FockVector({monomial([1]): F(2, 5), monomial([2, 1]): F(-3, 4)})]


def test_mode_actions_match_fraction_sums():
    for s in MODE_STATES:
        for t in MODE_STATES:
            for n in range(-4, 5):
                assert mode_apply(s, n, t) == _ref_mode_apply(s, n, t)
                assert X_apply(s, t, n) == _ref_X_apply(s, t, n)


def test_mode_actions_keep_int_values_on_the_scale_one():
    u = FockVector({monomial([2]): 3, monomial([1, 1]): -2})
    w = FockVector({monomial([1]): 5})
    for n in range(-3, 3):
        for got in (mode_apply(u, n, w), X_apply(u, w, n)):
            assert all(type(c) is int and c for c in got.terms.values())
    # off the scale one the sum is divided back into Fractions
    half = mode_apply(OMEGA, -1, w)
    assert half.terms == {(1, 1, 1): F(5, 2), (3,): F(5)}
    assert all(type(c) is F for c in half.terms.values())
    # int, whole Fraction and proper Fraction coefficients, mixed within
    # a vector and across the two: each vector that holds only ints is on
    # the scale 1 as it is, every other one is put on its own scale
    mixed = [u, w, OMEGA,
             FockVector({monomial([2]): 3, monomial([1, 1]): F(2)}),
             FockVector({monomial([1]): F(2), (): -1}),
             FockVector({monomial([1]): F(1, 3), (): 2}),
             FockVector({monomial([1, 1]): F(1, 3), monomial([2]): F(2),
                         (): 4})]
    for s in mixed:
        for t in mixed:
            ints = all(type(c) is int
                       for c in (*s.terms.values(), *t.terms.values()))
            for n in range(-3, 3):
                got = mode_apply(s, n, t)
                assert got == _ref_mode_apply(s, n, t), (s, n, t)
                assert all(got.terms.values())
                assert X_apply(s, t, n) == _ref_X_apply(s, t, n)
                if ints:
                    assert all(type(c) is int for c in got.terms.values())


def _ref_exp(a, order):
    return PowerSeries({m: F(a ** m, factorial(m)) for m in range(order + 1)},
                       order)


def _ref_zhu_scalar_series(a, j, order):
    """e^{ay} (e^y - 1)^{-j-1} through y^order, as ((exp, Fraction), ...);
    for j >= 0 the negative power is y^{-j-1} times the inverse of a unit
    series."""
    p = -j - 1
    if p >= 0:
        em1 = PowerSeries({m: F(1, factorial(m)) for m in range(1, order + 1)},
                          order)
        return sorted((em1.pow_int(p) * _ref_exp(a, order)).coeffs.items())
    m = -p
    work = order + m
    unit = PowerSeries({i: F(1, factorial(i + 1)) for i in range(work + 1)},
                       work)
    ser = unit.pow_int(-m) * _ref_exp(a, work)
    return sorted((t - m, c) for t, c in ser.coeffs.items() if t - m <= order)


def _ref_zhu_bracket_apply(u, v, order):
    """Y[u, y]v through y^order: each mode u_j v of each weight component
    of u times the scalar series of its weight and index."""
    terms = {}
    for a, comp in u.weight_components():
        for j in range(-(order + 1), a + v.max_weight()):
            g = _ref_mode_apply(comp, j, v)
            if g:
                for e, c in _ref_zhu_scalar_series(a, j, order):
                    _add_scaled(terms.setdefault((e,), {}), g, c)
    return MultiSeries((window_var("y", -(order + 1), order),),
                       {cell: FockVector(acc) for cell, acc in terms.items()
                        if acc},
                       {"y": (None, order)})


def _ref_compose_zhu(u, v, r_order):
    """Y[u, -log(1 - r)]v through r^r_order, by substituting
    y = sum_{k>=1} r^k / k into the Laurent series of Y[u, y]v: negative
    powers of y become r^{-m} times powers of the inverse unit series r/y."""
    zb = _ref_zhu_bracket_apply(u, v, r_order)
    m_max = max((-p for (p,) in zb.terms if p < 0), default=0)
    work = r_order + m_max
    ylog = PowerSeries({k: F(1, k) for k in range(1, r_order + 1)}, r_order)
    inv_unit = PowerSeries({k - 1: F(1, k) for k in range(1, work + 2)},
                           work).inverse()
    out = {}
    for (p,), vec in zb.terms.items():
        if p >= 0:
            for t, c in ylog.pow_int(p).coeffs.items():
                _add_scaled(out.setdefault(t, {}), vec, c)
        else:
            for t, c in inv_unit.pow_int(-p).coeffs.items():
                if t + p <= r_order:
                    _add_scaled(out.setdefault(t + p, {}), vec, c)
    return {q: FockVector(acc) for q, acc in out.items() if acc}


# denominators 2, 3, 4, 5, 6 and 7; the last two states mix weights
ZHU_STATES = [vacuum(), H, OMEGA, W_STATES[-1], MODE_STATES[-1],
              FockVector({(): F(3, 7), (3,): F(1, 2), (1, 1): F(5, 3)})]


@pytest.mark.parametrize("r_order", [2, 5, 8, 10])
def test_closed_form_states_match_the_series_composition(r_order):
    for u in ZHU_STATES:
        for v in ZHU_STATES:
            got = _compose_zhu_with_log(u, v, r_order)
            assert dict(got) == _ref_compose_zhu(u, v, r_order), (u, v)
            assert all(type(c) is F and c
                       for g in got.values() for c in g.terms.values())
            zb, want = (zhu_bracket_apply(u, v, r_order),
                        _ref_zhu_bracket_apply(u, v, r_order))
            assert zb.terms == want.terms, (u, v)
            assert zb.x_ival == want.x_ival


class _RefTables:
    def __init__(self, coef, u, v, w, u_reach, v_reach):
        self.u_reach, self.v_reach = u_reach, v_reach
        uw = self.uw = functools.cache(lambda e: coef(u, e, w))
        vw = self.vw = functools.cache(lambda e: coef(v, e, w))
        self.v_uw = functools.cache(lambda e, e_in: coef(v, e, uw(e_in)))
        self.u_vw = functools.cache(lambda e, e_in: coef(u, e, vw(e_in)))


def _ref_lhs_cell(tab, a0, a1, a2):
    n = -a0 - 1
    acc = {}
    for sign, e_in, e_out, reach, inner, outer in (
            (1, a2, a1, tab.v_reach, tab.vw, tab.u_vw),
            (-(-1) ** (n % 2), a1, a2, tab.u_reach, tab.uw, tab.v_uw)):
        kmax = e_in + reach
        if n >= 0:
            kmax = min(kmax, n)
        for k in range(kmax + 1):
            c = comb_int(n, k) * (-1) ** k * sign
            if c and inner(e_in - k):
                _add_scaled(acc, outer(e_out - n + k, e_in - k), c)
    return FockVector(acc)


def _ref_jacobi_rhs_cell(uv, iterate, top, a0, a1, a2):
    acc = {}
    for j in range(-a0 - 1, top):
        k = a0 + j + 1
        c = comb_int(a0 + a1 + j + 1, k) * (-1) ** k
        if c and uv(j):
            _add_scaled(acc, iterate(j, -(a0 + a1 + a2 + j + 3)), c)
    return FockVector(acc)


def _ref_dilated_rhs_cell(g_by_q, q_min, gw, a0, a1, a2):
    n = a0 + a1
    c2 = a0 + a1 + a2 + 1
    acc = {}
    kmax = a0 - q_min
    if n >= 0:
        kmax = min(kmax, n)
    for k in range(kmax + 1):
        c = comb_int(n, k) * (-1) ** k
        if c and a0 - k in g_by_q:
            _add_scaled(acc, gw(a0 - k, c2), c)
    return FockVector(acc)


def _ref_jacobi(u, v, w):
    wu, wv, ww = u.max_weight(), v.max_weight(), w.max_weight()
    tab = _RefTables(lambda s, e, t: _ref_mode_apply(s, -e - 1, t),
                     u, v, w, wu + ww, wv + ww)
    uv = functools.cache(lambda j: _ref_mode_apply(u, j, v))
    iterate = functools.cache(lambda j, m: _ref_mode_apply(uv(j), m, w))
    return lambda a0, a1, a2: (
        _ref_lhs_cell(tab, a0, a1, a2),
        _ref_jacobi_rhs_cell(uv, iterate, wu + wv, a0, a1, a2))


def _ref_dilated(u, v, w):
    wu, wv, ww = u.max_weight(), v.max_weight(), w.max_weight()
    g = _ref_compose_zhu(u, v, max(YDEG, BOX + wu + wv + 1))
    q_min = min(g, default=0)
    tab = _RefTables(lambda s, e, t: _ref_X_apply(s, t, -e), u, v, w, ww, ww)
    gw = functools.cache(lambda q, c: _ref_X_apply(g[q], w, -c))
    return lambda a0, a1, a2: (
        _ref_lhs_cell(tab, a0, a1, a2),
        _ref_dilated_rhs_cell(g, q_min, gw, a0, a1, a2))


_CHECKS = {
    "jacobi": (jacobi_check, _ref_jacobi),
    "dilated": (lambda u, v, w, win: dilated_jacobi_check(u, v, w, win, YDEG),
                _ref_dilated),
}


_BOX = range(-BOX, BOX + 1)
_WINDOWS = {x: (-BOX, BOX) for x in ("x0", "x1", "x2")}


def _reference_cells(cell):
    """{key: (lhs, rhs, status)} of the cells a report lists, from the
    reference cell function, over the whole box."""
    want = {}
    for a0 in _BOX:
        for a1 in _BOX:
            for a2 in _BOX:
                lhs, rhs = cell(a0, a1, a2)
                if lhs or rhs:
                    lt, rt = fock_str(lhs), fock_str(rhs)
                    want[f"x0^{a0} x1^{a1} x2^{a2}"] = (
                        lt, rt, PASS if lt == rt else FAIL)
    return want


def _listed_cells(rep):
    assert rep.counts["total"] == len(_BOX) ** 3
    return {c.key: (c.lhs, c.rhs, c.status) for c in rep.cells}


@pytest.mark.parametrize("identity", sorted(_CHECKS))
@pytest.mark.parametrize("vname", sorted(STATES))
@pytest.mark.parametrize("uname", sorted(STATES))
def test_int_cells_match_fraction_cells(identity, uname, vname):
    check, reference = _CHECKS[identity]
    u, v = STATES[uname], STATES[vname]
    listed = 0
    for w in W_STATES:
        rep = check(u, v, w, _WINDOWS)
        got = _listed_cells(rep)
        assert got == _reference_cells(reference(u, v, w)), w
        assert rep.passed
        listed += len(got)
    assert listed


def test_dilated_g_off_the_scale_raises(monkeypatch):
    # g(r) = Y[u, -log(1 - r)]v = Y((1 - r)^{-L(0)} u, r/(1 - r))v has
    # int binomial coefficients times u's and v's, so every true g_q is
    # on the scale den(u) den(v).  A g scaled by 1/7 is not: the check
    # must refuse it, not floor it onto the scale.
    real = voa._compose_zhu_with_log

    def seventh(u, v, r_order):
        return {q: g.scale(F(1, 7)) for q, g in real(u, v, r_order).items()}

    monkeypatch.setattr(voa, "_compose_zhu_with_log", seventh)
    for w in W_STATES:
        with pytest.raises(ValueError, match="not a multiple of 1/2"):
            dilated_jacobi_check(OMEGA, H, w, _WINDOWS, YDEG)


def test_entry_off_the_scale_raises():
    third = FockVector({(2,): F(1, 3), (1, 1): F(1, 2)})
    assert _on_scale(third, 6).terms == {(2,): 2, (1, 1): 3}
    assert _on_scale(third, 12).terms == {(2,): 4, (1, 1): 6}
    assert _off_scale({(2,): 4, (1, 1): 6, (3,): 0}, 12) == third
    for den in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="not a multiple of 1/"):
            _on_scale(third, den)


@pytest.mark.parametrize("identity", sorted(_CHECKS))
def test_check_on_too_coarse_a_scale_raises(identity, monkeypatch):
    # a scale that leaves out den(w) puts w's entries off the scale: the
    # check must refuse, not floor them onto it
    check = _CHECKS[identity][0]
    w = W_STATES[-1]
    real = voa._den
    monkeypatch.setattr(voa, "_den", lambda vec: 1 if vec is w else real(vec))
    win = {x: (-1, 1) for x in ("x0", "x1", "x2")}
    with pytest.raises(ValueError, match="not a multiple of 1/"):
        check(OMEGA, H, w, win)
