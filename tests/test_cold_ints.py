"""The bracket, contraction and differential-operator verifiers on integer
scales, and the closed forms of one- and two-part mode tables, against the
Fraction code they replaced.

The references below are the Fraction bodies of ``_verify_bracket`` and
``contraction_check`` (every cell built from Fraction vectors and
rendered with ``fock_str``), and ``verify_diff_op_projection`` on Laurent
polynomials with the operators composed one D at a time
(``fock_reference.diff_op_apply``).  The int and closed-form verifiers
must give the same report, cell for cell and string for string, passing
or failing.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fockcalc import cli, quadratic, voa
from fockcalc.exact import ZERO, _add_into, rat_str
from fockcalc.fock import (FockVector, _iaxpy, _off_scale, basis, fock_str,
                           h_apply, vacuum, weight_basis)
from fockcalc.quadratic import (_bracket_mon, _lpq_mon, _verify_bracket,
                                _zeta_shift, verify_diff_op_projection)
from fockcalc.report import FAIL, VerificationReport
from fockcalc.series import contraction_check
from fockcalc.voa import _mode_mon, axiom_suite
from fock_reference import (diff_op_apply, laurent_str, monomial,
                            ordered_pair_apply)
from test_voa import _mode_mon_by_h_apply

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
BOX = range(-3, 4)


def vec(*pairs):
    return FockVector({monomial(parts): Fraction(c) for parts, c in pairs})


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------

def _ref_verify_bracket(identity, m, n, max_weight, shift, central):
    scalar = (m - n) * shift + central if m + n == 0 else ZERO
    rep = VerificationReport(
        identity=identity,
        parameters={"m": m, "n": n, "max_weight": max_weight},
        data={"central_term": rat_str(central)},
    )
    for w in range(max_weight + 1):
        for mon in weight_basis(w):
            lhs = FockVector({out: Fraction(c, 4) for out, c
                              in _bracket_mon(0, 0, m, n, mon).items()})
            acc = {mon: 2 * scalar.numerator}
            _iaxpy(acc, _lpq_mon(0, 0, m + n, mon).terms,
                   (m - n) * scalar.denominator)
            rhs = _off_scale(acc, 2 * scalar.denominator)
            text = fock_str(lhs)
            rep.add_cell(list(mon), text,
                         text if lhs == rhs else fock_str(rhs))
    return rep


def _ref_contraction_check(v, window):
    rep = VerificationReport(
        identity="contraction",
        parameters={"weight": v.max_weight(), "window": window},
    )
    box = range(-window, window + 1)
    for e1 in box:
        for e2 in box:
            lhs = h_apply(-e1, h_apply(-e2, v))
            rhs = ordered_pair_apply(-e1, -e2, v)
            if e1 + e2 == 0 and e2 >= 1:
                rhs = rhs + v.scale(e2)
            if lhs or rhs:
                rep.add_cell(f"x1^{e1} x2^{e2}", fock_str(lhs), fock_str(rhs))
            else:
                rep.bulk_passed += 1
    return rep


def _laurent_axpy(acc, p, c):
    """acc += c * p for Laurent polynomials, c nonzero; zero sums dropped."""
    for k, x in p.items():
        _add_into(acc, k, c * x)


def _ref_diff_op_projection(r, s, m, n, max_weight, p_bound):
    rep = VerificationReport(
        identity="diffop-projection",
        parameters={"r": r, "s": s, "m": m, "n": n,
                    "max_weight": max_weight, "p_bound": p_bound},
    )
    # looked up at call time, so a patched decomposition reaches both sides
    dec = quadratic.central_decompose(r, s, m, n, max_weight,
                                      regularized=False)
    if not dec.ok:
        rep.add_cell("fit-residual", "NONZERO", "0", FAIL)
        return rep
    if not dec.unique:
        rep.add_uncertified("fit-unique")
        return rep
    rep.data["cocycle_value"] = rat_str(dec.scalar_part)
    rep.data["operator_part"] = [rat_str(c) for c in dec.operator_part]
    op = diff_op_apply
    for p in range(-p_bound, p_bound + 1):
        tp = {p: Fraction(1)}
        lhs, rhs = {}, {}
        for j, c in enumerate(dec.operator_part):
            if c:
                _laurent_axpy(lhs, op(j, m + n, tp), c)
        _laurent_axpy(rhs, op(r, m, op(s, n, tp)), 1)
        _laurent_axpy(rhs, op(s, n, op(r, m, tp)), -1)
        rep.add_cell(f"t^{p}", laurent_str(lhs), laurent_str(rhs))
    return rep


# ---------------------------------------------------------------------------
# Bracket cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regularized", [False, True])
@pytest.mark.parametrize("m", BOX)
def test_bracket_matches_fraction_reference(m, regularized):
    shift = _zeta_shift(0) if regularized else ZERO
    for n in BOX:
        central = Fraction(m ** 3 - (not regularized) * m, 12)
        central = central if m + n == 0 else ZERO
        args = ("bracket", m, n, 5, shift, central)
        got = _verify_bracket(*args)
        assert got.passed
        assert got.to_json_dict() == _ref_verify_bracket(*args).to_json_dict()


@pytest.mark.parametrize("central", [Fraction(1, 3), Fraction(1, 7)])
@pytest.mark.parametrize("regularized", [False, True])
def test_failing_bracket_matches_fraction_reference(central, regularized):
    shift = _zeta_shift(0) if regularized else ZERO
    for m in BOX:
        args = ("bracket", m, -m, 5, shift, central)
        got = _verify_bracket(*args)
        assert not got.passed
        assert got.to_json_dict() == _ref_verify_bracket(*args).to_json_dict()


# ---------------------------------------------------------------------------
# Contraction cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v", [
    vacuum(),
    vec(((2,), Fraction(1, 2))),
    vec(((1, 1), Fraction(1, 3)), ((2,), -1)),
    vec(((3,), Fraction(1, 6)), ((2, 1), Fraction(-1, 2)),
        ((1, 1, 1), Fraction(1, 3)), ((), 2)),
    vec(((2, 2), Fraction(5, 6)), ((3, 1), Fraction(-7, 3))),
])
def test_contraction_matches_fraction_reference(v):
    got = contraction_check(v, 5)
    assert got.passed
    assert got.to_json_dict() == _ref_contraction_check(v, 5).to_json_dict()


# ---------------------------------------------------------------------------
# Differential-operator projection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r, s", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_diffop_matches_fraction_reference(r, s):
    for m, n in [(2, -1), (-1, -1), (1, 0), (2, -2), (-2, 1)]:
        got = verify_diff_op_projection(r, s, m, n, 5, 4)
        assert got.passed
        want = _ref_diff_op_projection(r, s, m, n, 5, 4)
        assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("r, s", [(0, 1), (1, 0), (1, 1)])
def test_diffop_non_unit_operator_part_matches_reference(r, s, monkeypatch):
    # the fit has int operator parts at these scales; give them mixed
    # denominators, so the lhs sums on a scale d > 1 and the cells fail
    # alike on both sides
    fit = quadratic.central_decompose

    def skewed(*args, **kwargs):
        dec = fit(*args, **kwargs)
        dec.operator_part = [c * Fraction(j + 1, 2 * j + 3) + Fraction(1, 6)
                             for j, c in enumerate(dec.operator_part)]
        return dec

    monkeypatch.setattr(quadratic, "central_decompose", skewed)
    for m, n in [(2, -1), (1, 1), (-2, 2)]:
        got = verify_diff_op_projection(r, s, m, n, 5, 4)
        want = _ref_diff_op_projection(r, s, m, n, 5, 4)
        assert "operator_part" in got.data
        assert any(c.status == FAIL for c in got.cells)
        assert got.to_json_dict() == want.to_json_dict()


# ---------------------------------------------------------------------------
# One- and two-part mode tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 8))
def test_one_part_mode_tables_match_h_apply_recursion(k):
    for n in range(-14, 15):
        for t in basis(6):
            got = _mode_mon((k,), n, t)
            assert got == _mode_mon_by_h_apply((k,), n, t), (n, t)
            assert all(type(c) is int and c for c in got.terms.values())
            with pytest.raises(TypeError):
                got.terms[(9,)] = 1


@pytest.mark.parametrize("k1, k2", [(k1, k2) for k1 in range(1, 7)
                                    for k2 in range(1, k1 + 1)])
def test_two_part_mode_tables_match_h_apply_recursion(k1, k2):
    for n in range(-14, 15):
        for t in basis(6):
            got = _mode_mon((k1, k2), n, t)
            assert got == _mode_mon_by_h_apply((k1, k2), n, t), (n, t)
            assert all(type(c) is int and c for c in got.terms.values())
            with pytest.raises(TypeError):
                got.terms[(9,)] = 1


def test_every_cached_zero_table_is_the_shared_zero(monkeypatch):
    # the recursion calls the module name too, so the spy sees every
    # table the cache stores
    cached = voa._mode_mon
    seen = {}

    def spy(*key):
        seen[key] = table = cached(*key)
        return table

    cached.cache_clear()
    monkeypatch.setattr(voa, "_mode_mon", spy)
    axiom_suite(2, 3)
    assert len(seen) == cached.cache_info().currsize
    zeros = [table for table in seen.values() if not table.terms]
    assert zeros
    assert all(table is voa._ZERO_MODE for table in zeros)
    with pytest.raises(TypeError):
        voa._ZERO_MODE.terms[()] = 1


# ---------------------------------------------------------------------------
# Bench-scale bytes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", [
    "verify-virasoro --m 3 --n -3 --weight 8",
    "verify-modified --m -2 --n 2 --weight 8",
    "verify-diffop --r 1 --s 1 --m 2 --n -1 --weight 6 --laurent-bound 6",
    "verify-contraction --weight 6 --window 12",
])
def test_output_matches_benchmark_digest(command):
    # the benchmark's own recorded digest, at the scale it runs
    want = json.loads(EXPECTED.read_text())[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json"] + command.split())
    data = out.getvalue().encode()
    assert code == want["exit"]
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
