"""Tests for the Fock space, oscillator actions, and the closed form of the
differential operators on Laurent polynomials."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fockcalc.exact import graded_dimension
from fockcalc.fock import (FockVector, basis, fock_str, h_apply, vacuum,
                           weight_basis, weight_index)
from fockcalc.quadratic import _diff_op_coeff
from fock_reference import d_apply, diff_op_apply, monomial, weight


def mono(*parts):
    return FockVector({monomial(parts): F(1)})


def test_monomial_canonical_form():
    assert monomial([1, 3, 1]) == (3, 1, 1)
    with pytest.raises(ValueError):
        monomial([0, 2])


def test_h_creation_on_vacuum():
    assert h_apply(-2, vacuum()) == mono(2)
    assert h_apply(-1, h_apply(-3, vacuum())) == mono(3, 1)


def test_h_annihilation():
    # h(1) h(-1) vacuum = [h(1), h(-1)] vacuum = 1 * vacuum
    assert h_apply(1, mono(1)) == vacuum()
    # 2 d/dh(-2) on h(-2)^2
    assert h_apply(2, mono(2, 2)) == mono(2).scale(4)
    # annihilator with no matching part
    assert not h_apply(3, mono(2, 1))


def test_h_zero_mode_vanishes():
    for m in basis(3):
        assert not h_apply(0, FockVector({m: F(1)}))


def test_h_shifts_weight():
    v = mono(3, 1)
    for n in range(-4, 5):
        out = h_apply(n, v)
        if out:
            assert weight(out) == weight(v) - n


def test_heisenberg_relations():
    # [h(m), h(n)] = m delta_{m+n,0} on every basis vector up to weight 5
    for m in range(-5, 6):
        for n in range(-5, 6):
            for mon_ in basis(5):
                v = FockVector({mon_: F(1)})
                lhs = h_apply(m, h_apply(n, v)) - h_apply(n, h_apply(m, v))
                rhs = v.scale(m) if m + n == 0 else FockVector()
                assert lhs == rhs, (m, n, mon_)


def test_annihilator_kills_low_weight():
    for n in range(1, 6):
        for w in range(n):
            for mon_ in weight_basis(w):
                assert not h_apply(n, FockVector({mon_: F(1)}))


def test_weight():
    assert weight(vacuum()) == 0
    assert weight(mono(3, 1, 1)) == 5
    assert weight(mono(1, 1) + mono(2)) == 2
    with pytest.raises(ValueError):
        weight(FockVector())
    with pytest.raises(ValueError):
        weight(mono(1) + mono(2))


def test_basis_ordering():
    assert basis(2) == [(), (1,), (2,), (1, 1)]
    assert weight_basis(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_weight_index_is_read_only():
    # the mapping is a shared cache entry: a write would corrupt every
    # later lookup
    index = weight_index(3)
    assert dict(index) == {(3,): 0, (2, 1): 1, (1, 1, 1): 2}
    with pytest.raises(TypeError):
        index[(3,)] = 5
    assert weight_index(3)[(3,)] == 0


def test_basis_counts_match_graded_dimension():
    ser = graded_dimension(9)
    for w in range(10):
        assert len(weight_basis(w)) == ser.coeff(w)


def test_fock_vector_arithmetic():
    v = mono(2) + mono(1, 1).scale(F(1, 2))
    w = v - mono(2)
    assert w == mono(1, 1).scale(F(1, 2))
    assert not (v - v)
    assert fock_str(v) == "1/2*[1,1] + 1*[2]"
    assert fock_str(FockVector()) == "0"


# ---------------------------------------------------------------------------
# The differential operators (-1)^{r+1} D^r (t^n D) D^r on Laurent polynomials
# ---------------------------------------------------------------------------

def test_d_apply():
    assert d_apply({3: F(1), -2: F(5)}) == {3: F(3), -2: F(-10)}
    assert not d_apply({0: F(7)})


def test_diff_op_examples():
    for m in range(-4, 5):
        # r=0, n=0: the operator is -D
        assert _diff_op_coeff(0, 0, m) == -m
        # r=1, n=0: D^3
        assert _diff_op_coeff(1, 0, m) == m ** 3
    # D kills constants for any r >= 1, n
    for r in range(1, 3):
        for n in range(-2, 3):
            assert _diff_op_coeff(r, n, 0) == 0


def test_diff_op_closed_form():
    # on t^p the composed operator is _diff_op_coeff(r, n, p) t^{p+n}
    for r in range(5):
        for n in range(-6, 7):
            for p in range(-8, 9):
                a = _diff_op_coeff(r, n, p)
                assert diff_op_apply(r, n, {p: 1}) == ({p + n: a} if a else {})


def test_diff_op_composition_law():
    # applying the r=0 operator twice matches the direct second computation
    p = {2: F(1), -1: F(3)}
    twice = diff_op_apply(0, 2, diff_op_apply(0, 1, p))
    for m, c in p.items():
        assert twice.get(m + 3, F(0)) == c * m * (m + 1)


# ---------------------------------------------------------------------------
# algebra laws of FockVector
# ---------------------------------------------------------------------------

_scalars = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_fock_vectors = st.dictionaries(st.sampled_from(basis(3)), _scalars,
                                max_size=5).map(
    lambda terms: FockVector({m: c for m, c in terms.items() if c}))


def _no_stored_zero(v):
    return all(type(c) is F and c for c in v.terms.values())


@settings(max_examples=200, deadline=None)
@given(_fock_vectors, _fock_vectors, _fock_vectors)
def test_vector_addition_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert _no_stored_zero(a + b) and _no_stored_zero((a + b) + c)


@settings(max_examples=200, deadline=None)
@given(_fock_vectors, _fock_vectors, _scalars, _scalars)
def test_scale_is_a_module_action(a, b, s, t):
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert a.scale(s + t) == a.scale(s) + a.scale(t)
    assert a.scale(s * t) == a.scale(t).scale(s)
    assert a.scale(1) == a
    for v in (a.scale(s), (a + b).scale(s), a.scale(s) + a.scale(t)):
        assert _no_stored_zero(v)


@settings(max_examples=200, deadline=None)
@given(_fock_vectors)
def test_vector_minus_itself_is_zero(v):
    diff = v - v
    assert not diff and diff.terms == {}
    assert v + v.scale(-1) == diff == v.scale(0)
