"""Tests for the quadratic operator families and bracket verifiers."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc.fock import FockVector, basis, monomial, vacuum, weight, weight_basis
from fockcalc.quadratic import (CentralDecomposition, FitError, L_apply,
                                L_op, Lbar_apply, Lbar_op, Lr_apply, Lr_op,
                                WindowError, central_decompose, commutator,
                                identity_op, interpolate_polynomial,
                                solve_exact, to_matrix,
                                verify_diff_op_projection,
                                verify_modified_virasoro,
                                verify_monomial_purity, verify_virasoro)
from fockcalc.quadratic import _MATRIX_CACHE, _lpq_mon, ordered_pair_apply


def mono(*parts):
    return FockVector({monomial(parts): F(1)})


# ---------------------------------------------------------------------------
# applications
# ---------------------------------------------------------------------------

def test_L0_is_the_weight_operator():
    for mon_ in basis(6):
        v = FockVector({mon_: F(1)})
        assert L_apply(0, v) == v.scale(sum(mon_))


def test_L_on_vacuum():
    assert not L_apply(-1, vacuum())
    assert L_apply(-2, vacuum()) == mono(1, 1).scale(F(1, 2))


def test_L_weight_shift():
    for n in range(-4, 5):
        for mon_ in basis(5):
            out = L_apply(n, FockVector({mon_: F(1)}))
            if out:
                assert weight(out) == sum(mon_) - n


def test_Lr_agrees_with_L_at_r0():
    for n in range(-4, 5):
        for mon_ in basis(4):
            v = FockVector({mon_: F(1)})
            assert Lr_apply(0, n, v) == L_apply(n, v)


def test_Lr_zero_mode_eigenvalues():
    # on a monomial the r-indexed zero mode acts by (-1)^r sum_i part_i^{2r+1}
    for r in range(3):
        for mon_ in basis(5):
            v = FockVector({mon_: F(1)})
            eig = (-1) ** r * sum(p ** (2 * r + 1) for p in mon_)
            assert Lr_apply(r, 0, v) == v.scale(eig)
    assert Lr_apply(1, 0, mono(1)) == mono(1).scale(-1)
    assert Lr_apply(1, 0, mono(2)) == mono(2).scale(-8)


def test_Lbar_eigenvalues_on_vacuum():
    assert Lbar_apply(0, 0, vacuum()) == vacuum().scale(F(-1, 24))
    assert Lbar_apply(1, 0, vacuum()) == vacuum().scale(F(-1, 240))
    assert Lbar_apply(2, 3, mono(2, 1)) == Lr_apply(2, 3, mono(2, 1))


# ---------------------------------------------------------------------------
# cached per-monomial tables
# ---------------------------------------------------------------------------

def _Lr_reference(r, n, v):
    """The defining sum over j, term by term: a route to Lr_apply that
    shares no code with its cached tables."""
    acc = FockVector()
    for j in range(min(0, n) - v.max_weight(), max(0, n) + v.max_weight() + 1):
        k = n - j
        if j and k:
            acc = acc + ordered_pair_apply(j, k, v).scale(
                F(1, 2) * j ** r * k ** r)
    return acc


_coeffs = st.one_of(st.integers(-5, 5).filter(bool),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=7).filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.integers(-6, 6),
       st.dictionaries(st.sampled_from(basis(5)), _coeffs, max_size=5))
def test_Lr_apply_matches_direct_sum(r, n, terms):
    # coefficients may be ints or Fractions; halving an int must not give
    # a float
    v = FockVector(terms)
    got = Lr_apply(r, n, v)
    assert got == _Lr_reference(r, n, v)
    assert all(type(c) is F and c for c in got.terms.values())


def _lpq_reference(p, q, n, mon):
    """The defining sum over ordered pairs j + k = n, term by term."""
    v = FockVector({mon: F(1)})
    acc = FockVector()
    for j in range(min(0, n) - sum(mon), max(0, n) + sum(mon) + 1):
        k = n - j
        if j and k:
            acc = acc + ordered_pair_apply(j, k, v).scale(j ** p * k ** q)
    return acc


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(-6, 6),
       st.sampled_from(basis(5)))
def test_lpq_tables_match_defining_sum(p, q, n, mon):
    # p != q weights the two slots of a mixed or creation pair unequally
    got = _lpq_mon(p, q, n, mon)
    assert got == _lpq_reference(p, q, n, mon)
    assert all(type(c) is int and c for c in got.terms.values())


@pytest.mark.parametrize("verify, m, n", [(verify_virasoro, 2, -2),
                                          (verify_modified_virasoro, 3, -3)])
def test_Lr_tables_leave_shared_cache_intact(verify, m, n):
    verify(m, n, 4)
    fixed = _lpq_mon(1, 1, -2, (2, 1))
    before = dict(fixed.terms)
    assert len(before) > 1
    hot = verify(m, n, 4).to_json_dict()
    out = Lr_apply(1, -2, mono(2, 1))
    out.terms.clear()
    with pytest.raises(TypeError):
        fixed.terms[(5,)] = 1
    assert _lpq_mon(1, 1, -2, (2, 1)) is fixed
    assert fixed.terms == before
    _lpq_mon.cache_clear()
    _MATRIX_CACHE.clear()
    cold = verify(m, n, 4).to_json_dict()
    assert hot == cold
    assert _lpq_mon(1, 1, -2, (2, 1)).terms == before


# ---------------------------------------------------------------------------
# matrices and commutators
# ---------------------------------------------------------------------------

def test_to_matrix_L0_diagonal():
    op = to_matrix(L_op(0), 2)
    assert op.cols[0][0] == FockVector()
    assert op.cols[1][0] == mono(1)
    assert op.cols[2][0] == mono(2).scale(2)
    assert op.cols[2][1] == mono(1, 1).scale(2)


def test_cached_matrix_columns_are_read_only():
    op = to_matrix(L_op(-1), 3)
    assert to_matrix(L_op(-1), 3) is op
    col = op.cols[2][0]
    before = dict(col.terms)
    assert before
    with pytest.raises(TypeError):
        col.terms[(9,)] = F(1)
    with pytest.raises(TypeError):
        del col.terms[next(iter(before))]
    assert to_matrix(L_op(-1), 3).cols[2][0].terms == before


def test_to_matrix_annihilates_low_weights():
    op = to_matrix(L_op(5), 3)
    for w in range(4):
        for col in op.cols[w]:
            assert not col


def test_matrix_apply_matches_direct():
    op = to_matrix(Lr_op(1, -2), 5)
    for mon_ in basis(3):
        v = FockVector({mon_: F(1)})
        assert op.apply(v) == Lr_apply(1, -2, v)
    with pytest.raises(WindowError):
        op.apply(FockVector({monomial([6]): F(1)}))


def test_commutator_degree_and_value():
    a = to_matrix(L_op(1), 8)
    b = to_matrix(L_op(-1), 8)
    comm = commutator(a, b, 4)
    assert comm.degree == 0
    two_l0 = to_matrix(L_op(0), 4)
    for w in range(5):
        for i in range(len(weight_basis(w))):
            assert comm.column(w, i) == two_l0.column(w, i).scale(2)


def test_commutator_antisymmetry_zero():
    a = to_matrix(L_op(0), 4)
    comm = commutator(a, a, 4)
    for w in range(5):
        for col in comm.cols[w]:
            assert not col


def test_commutator_window_too_small():
    a = to_matrix(L_op(-3), 2)
    b = to_matrix(L_op(3), 2)
    # weight-2 source needs weight-5 intermediates, not representable
    with pytest.raises(WindowError):
        commutator(a, b, 5)


# ---------------------------------------------------------------------------
# bracket relation verifiers
# ---------------------------------------------------------------------------

def test_virasoro_central_cases():
    rep = verify_virasoro(2, -2, 6)
    assert rep.passed
    assert rep.data["central_term"] == "1/2"
    rep = verify_virasoro(1, -1, 6)
    assert rep.passed
    assert rep.data["central_term"] == "0"
    rep = verify_virasoro(3, 2, 6)
    assert rep.passed


def test_modified_virasoro_cases():
    rep = verify_modified_virasoro(2, -2, 6)
    assert rep.passed
    assert rep.data["central_term"] == "2/3"
    rep = verify_modified_virasoro(1, -1, 6)
    assert rep.passed
    assert rep.data["central_term"] == "1/12"
    # away from the diagonal the central term is absent
    rep = verify_modified_virasoro(3, 1, 5)
    assert rep.passed
    assert rep.data["central_term"] == "0"


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def test_solve_exact_unique():
    rows = [[F(1), F(1)], [F(1), F(-1)], [F(2), F(0)]]
    rhs = [F(3), F(1), F(4)]
    assert solve_exact(rows, rhs, 2) == ([F(2), F(1)], True)


def test_solve_exact_inconsistent_raises():
    with pytest.raises(FitError):
        solve_exact([[F(1)], [F(1)]], [F(1), F(2)], 1)


def test_solve_exact_degenerate_gives_particular_solution():
    sol, unique = solve_exact([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)], 2)
    assert not unique
    assert sol[0] + 2 * sol[1] == 1


def test_interpolate_polynomial():
    pts = [(m, F(m) ** 3 / 12) for m in range(1, 6)]
    coeffs = interpolate_polynomial(pts)
    assert coeffs[3] == F(1, 12)
    assert all(not c for i, c in enumerate(coeffs) if i != 3)


# ---------------------------------------------------------------------------
# central decomposition, purity, projection
# ---------------------------------------------------------------------------

def test_central_decompose_classical():
    dec = central_decompose(0, 0, 2, -2, 6)
    assert dec.ok and dec.unique
    assert dec.operator_part == [F(4)]
    assert dec.scalar_part == F(2, 3)


def test_central_decompose_degenerate_truncation():
    # at m = n = 3 the degree-6 family only acts on the top weight block
    # of the W=6 truncation, so its restriction is rank deficient; the
    # containment (zero residual) is still certified
    dec = central_decompose(1, 2, 3, 3, 6)
    assert dec.ok
    assert not dec.unique
    # one more weight block separates the family again
    dec = central_decompose(1, 2, 3, 3, 8)
    assert dec.ok and dec.unique


def test_central_decompose_off_diagonal():
    dec = central_decompose(0, 0, 1, 2, 6)
    assert dec.ok
    assert dec.operator_part == [F(-1)]
    assert dec.scalar_part == 0


def test_central_decompose_zero_modes_commute():
    dec = central_decompose(1, 2, 0, 0, 5)
    assert dec.ok
    assert all(not c for c in dec.operator_part)
    assert dec.scalar_part == 0


def test_monomial_purity_classical():
    rep = verify_monomial_purity(0, 0, 6, 6)
    assert rep.passed
    assert rep.data["monomial_exponent"] == 3
    assert rep.data["monomial_coefficient"] == "1/12"


def test_monomial_purity_mixed():
    rep = verify_monomial_purity(0, 1, 6, 6)
    assert rep.passed
    assert rep.data["monomial_exponent"] == 5
    assert rep.data["monomial_coefficient"] == "1/60"


def test_purity_rejects_too_few_points():
    with pytest.raises(ValueError):
        verify_monomial_purity(1, 1, 6, 6)


def test_diffop_projection_classical():
    rep = verify_diff_op_projection(0, 0, 2, 1, 6, 6)
    assert rep.passed
    # [L(2), L(1)] = L(3): operator part is (m - n) = 1
    assert rep.data["operator_part"] == ["1"]
    assert rep.data["cocycle_value"] == "0"


def test_diffop_projection_mixed():
    rep = verify_diff_op_projection(0, 1, 1, -2, 6, 5)
    assert rep.passed
    rep = verify_diff_op_projection(1, 1, 2, -1, 6, 4)
    assert rep.passed


def test_diffop_cocycle_recorded_on_diagonal():
    rep = verify_diff_op_projection(0, 0, 2, -2, 6, 4)
    assert rep.passed
    # unregularized central term at m=2: (m^3 - m)/12 = 1/2
    assert rep.data["cocycle_value"] == "1/2"


def test_operator_spec_identity():
    op = to_matrix(identity_op(), 3)
    for w in range(4):
        for i, mon_ in enumerate(weight_basis(w)):
            assert op.column(w, i) == FockVector({mon_: F(1)})


def test_decomposition_repr():
    dec = central_decompose(0, 0, 1, -1, 5)
    assert isinstance(dec, CentralDecomposition)
    assert "residual 0" in repr(dec)
    assert dec.scalar_part == F(1, 12)
