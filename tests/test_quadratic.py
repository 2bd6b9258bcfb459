"""Tests for the quadratic operator families and bracket verifiers."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc.exact import ZERO, UsageError
from fockcalc.fock import FockVector, basis, fock_str, vacuum, weight_basis
from fockcalc.quadratic import (CentralDecomposition, FitError, L_apply,
                                L_op, Lbar_apply, Lbar_op, Lr_apply, Lr_op,
                                WindowError, central_decompose, commutator,
                                identity_op, interpolate_polynomial,
                                solve_exact, to_matrix,
                                verify_diff_op_projection,
                                verify_modified_virasoro,
                                verify_monomial_purity, verify_virasoro)
from fockcalc.quadratic import (_MATRIX_CACHE, _bracket_mon, _lpq_mon,
                                _verify_bracket)
from fockcalc.report import FAIL, PASS
from fock_reference import monomial, ordered_pair_apply, weight


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
            assert comm.cols[w][i] == two_l0.cols[w][i].scale(2)


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


@pytest.fixture
def matrix_cache():
    """The matrix oracle fills ``_MATRIX_CACHE``; empty it afterwards."""
    yield
    _MATRIX_CACHE.clear()


def _matrix_bracket(a, b, max_weight):
    """[a, b] from the graded matrices, on a domain that certifies every
    weight <= max_weight."""
    enlarged = max_weight + abs(a.degree) + abs(b.degree)
    return commutator(to_matrix(a, enlarged), to_matrix(b, enlarged),
                      max_weight)


def _assert_int_bracket_matches(r, s, a, b, max_weight):
    comm = _matrix_bracket(a, b, max_weight)
    for w in range(max_weight + 1):
        for i, mon in enumerate(weight_basis(w)):
            got = _bracket_mon(r, s, a.degree, b.degree, mon)
            assert all(type(c) is int and c for c in got.values())
            assert got == {k: 4 * c for k, c in comm.cols[w][i].terms.items()}


@pytest.mark.parametrize("family", ["L", "Lbar"])
def test_int_bracket_matches_matrix_commutator(family, matrix_cache):
    # the zeta shift of Lbar(0) cancels from every commutator
    op = L_op if family == "L" else (lambda k: Lbar_op(0, k))
    for m in range(-4, 5):
        for n in range(-4, 5):
            _assert_int_bracket_matches(0, 0, op(m), op(n), 6 - abs(m + n) // 2)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(0, 6))
def test_int_bracket_of_Lr_matches_matrix_commutator(r, s, m, n, max_weight):
    try:
        _assert_int_bracket_matches(r, s, Lr_op(r, m), Lr_op(s, n),
                                    max_weight)
    finally:
        _MATRIX_CACHE.clear()


@pytest.mark.parametrize("verify, op, central", [
    (verify_virasoro, L_op, lambda m: F(m ** 3 - m, 12)),
    (verify_modified_virasoro, lambda k: Lbar_op(0, k), lambda m: F(m ** 3, 12)),
])
def test_bracket_reports_match_matrix_oracle(verify, op, central,
                                             matrix_cache):
    # both sides as the matrix verifier rendered them: the commutator
    # column, and (m-n) times the column of the shifted operator plus the
    # central term
    for m in range(-4, 5):
        for n in range(-4, 5):
            comm = _matrix_bracket(op(m), op(n), 4)
            right = to_matrix(op(m + n), 4)
            cells = iter(verify(m, n, 4).cells)
            for w in range(5):
                for i, mon in enumerate(weight_basis(w)):
                    rhs = right.cols[w][i].scale(m - n)
                    if m + n == 0:
                        rhs = rhs + FockVector({mon: F(1)}).scale(central(m))
                    cell = next(cells)
                    assert cell.key == str(list(mon))
                    assert cell.lhs == fock_str(comm.cols[w][i])
                    assert cell.rhs == fock_str(rhs)
            assert next(cells, None) is None


def test_failing_bracket_cell_renders_both_sides():
    # [L(2), L(-2)] = 4 L(0) + 1/2: a wrong central term fails every cell
    rep = _verify_bracket("virasoro-bracket", 2, -2, 2, ZERO, F(1, 3))
    assert not rep.passed
    vac, one = rep.cells[0], rep.cells[1]
    assert (vac.lhs, vac.rhs, vac.status) == ("1/2*[]", "1/3*[]", FAIL)
    assert (one.lhs, one.rhs, one.status) == ("9/2*[1]", "13/3*[1]", FAIL)
    good = _verify_bracket("virasoro-bracket", 2, -2, 2, ZERO, F(1, 2))
    assert good.passed
    assert good.cells[1].lhs == good.cells[1].rhs == "9/2*[1]"


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


def _gauss_jordan_reference(rows, rhs, ncols):
    """Gauss-Jordan elimination over Fractions, pivoting on the first
    nonzero entry; the free variables are zero."""
    aug = [[F(x) for x in row] + [F(val)] for row, val in zip(rows, rhs)]
    pivots = []
    for col in range(ncols):
        at = len(pivots)
        pivot = next((i for i in range(at, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[at], aug[pivot] = aug[pivot], aug[at]
        aug[at] = [x / aug[at][col] for x in aug[at]]
        for i in range(len(aug)):
            if i != at and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[at])]
        pivots.append(col)
    if any(row[ncols] for row in aug[len(pivots):]):
        raise FitError("inconsistent")
    sol = [F(0)] * ncols
    for row, col in zip(aug, pivots):
        sol[col] = row[ncols]
    return sol, len(pivots) == ncols


_entries = st.one_of(st.integers(-4, 4),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=6))


@st.composite
def _linear_systems(draw):
    """A = B C with inner size k, so rank <= k; b = A x0 (consistent) or
    drawn freely (usually inconsistent when A has more rows than rank)."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    k = draw(st.integers(0, ncols))
    b_mat = draw(st.lists(st.lists(_entries, min_size=k, max_size=k),
                          min_size=nrows, max_size=nrows))
    c_mat = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                          min_size=k, max_size=k))
    rows = [[sum((F(b[t]) * c_mat[t][j] for t in range(k)), F(0))
             for j in range(ncols)] for b in b_mat]
    if draw(st.booleans()):
        x0 = draw(st.lists(_entries, min_size=ncols, max_size=ncols))
        rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(_entries, min_size=nrows, max_size=nrows))
    # ints and Fractions mixed, as central_decompose passes them
    rows = [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
    return rows, rhs, ncols


@settings(max_examples=400, deadline=None)
@given(_linear_systems())
def test_solve_exact_matches_fraction_gauss_jordan(system):
    rows, rhs, ncols = system
    try:
        want = _gauss_jordan_reference(rows, rhs, ncols)
    except FitError:
        with pytest.raises(FitError):
            solve_exact(rows, rhs, ncols)
        return
    sol, unique = solve_exact(rows, rhs, ncols)
    assert (sol, unique) == want
    assert all(type(x) is F for x in sol)


@pytest.mark.parametrize("rows, rhs, ncols, outcome", [
    ([[2, 1], [F(1, 2), 3], [1, 0]], [4, F(13, 2), 1], 2, "unique"),
    ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], [1, 2, 5], 3, "rank-deficient"),
    ([[F(1, 3), 1], [1, 3]], [1, 2], 2, "inconsistent"),
    ([[0, 0], [0, 0]], [0, 0], 2, "rank-deficient"),
    ([[0, 0]], [1], 2, "inconsistent"),
])
def test_solve_exact_matches_reference_on_each_kind(rows, rhs, ncols,
                                                    outcome):
    if outcome == "inconsistent":
        for solve in (solve_exact, _gauss_jordan_reference):
            with pytest.raises(FitError):
                solve(rows, rhs, ncols)
        return
    sol, unique = solve_exact(rows, rhs, ncols)
    assert (sol, unique) == _gauss_jordan_reference(rows, rhs, ncols)
    assert unique == (outcome == "unique")


def test_solve_exact_degenerate_gives_particular_solution():
    sol, unique = solve_exact([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)], 2)
    assert not unique
    assert sol[0] + 2 * sol[1] == 1


def test_interpolate_polynomial():
    pts = [(m, F(m) ** 3 / 12) for m in range(1, 6)]
    coeffs = interpolate_polynomial(pts)
    assert coeffs[3] == F(1, 12)
    assert all(not c for i, c in enumerate(coeffs) if i != 3)


def test_interpolate_polynomial_repeated_node_raises():
    # a repeated node leaves the fit underdetermined; this must raise
    # under python -O as well
    with pytest.raises(ValueError, match="distinct"):
        interpolate_polynomial([(1, F(2)), (1, F(2)), (3, F(1))])


# ---------------------------------------------------------------------------
# central decomposition, purity, projection
# ---------------------------------------------------------------------------

def _central_reference(r, s, m, n, max_weight, regularized):
    """The fit over Fractions from the vector actions of the family, with
    the Fraction Gauss-Jordan reference: (operator part, scalar, unique)."""
    fam = Lbar_apply if regularized else Lr_apply
    with_id = m + n == 0
    rows, rhs = [], []
    for mon in basis(max_weight):
        e = FockVector({mon: F(1)})
        comm = fam(r, m, fam(s, n, e)) - fam(s, n, fam(r, m, e))
        fams = [fam(j, m + n, e) for j in range(r + s + 1)]
        support = set(comm.terms).union(*(f.terms for f in fams))
        for mu in sorted(support | ({mon} if with_id else set())):
            rows.append([f.coeff(mu) for f in fams]
                        + ([F(mu == mon)] if with_id else []))
            rhs.append(comm.coeff(mu))
    sol, unique = _gauss_jordan_reference(rows, rhs, r + s + 1 + with_id)
    return sol[:r + s + 1], (sol[-1] if with_id else 0), unique


@pytest.mark.parametrize("regularized", [True, False])
def test_central_decompose_matches_fraction_reference(regularized):
    # the regularized rows carry the zeta shifts of Lbar^(j)(0) on the
    # diagonal; the commutator itself has none
    for r, s in ((0, 0), (0, 1), (1, 1), (2, 0)):
        for m in range(-2, 3):
            for n in range(-2, 3):
                dec = central_decompose(r, s, m, n, 4, regularized)
                assert dec.ok
                assert (dec.operator_part, dec.scalar_part, dec.unique) == \
                    _central_reference(r, s, m, n, 4, regularized)


def test_negative_family_index_is_a_usage_error():
    # checked before any table is read: j ** -1 would be a float
    for r, s in ((-1, 0), (0, -1)):
        with pytest.raises(UsageError, match="r must be >= 0"):
            central_decompose(r, s, 1, 1, 3)
        with pytest.raises(UsageError, match="r must be >= 0"):
            verify_diff_op_projection(r, s, 1, -1, 3, 2)
    with pytest.raises(UsageError):
        verify_monomial_purity(-1, 0, 6, 3)
    with pytest.raises(UsageError):
        Lr_apply(-1, 0, mono(1))


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
    with pytest.raises(UsageError):
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


@pytest.mark.parametrize("r, s, m, n", [
    (0, 0, 2, 1), (1, 0, 1, -2), (1, 1, 2, -1), (0, 1, 2, -2)])
def test_diffop_cells_stay_when_the_laurent_bound_grows(r, s, m, n):
    small = verify_diff_op_projection(r, s, m, n, 5, 3)
    assert small.passed
    for p_bound in (4, 8):
        big = verify_diff_op_projection(r, s, m, n, 5, p_bound)
        assert big.data == small.data
        cells = {c.key: c for c in big.cells}
        assert len(cells) == 2 * p_bound + 1
        for c in small.cells:
            assert cells[c.key] == c


def test_operator_spec_identity():
    op = to_matrix(identity_op(), 3)
    for w in range(4):
        for i, mon_ in enumerate(weight_basis(w)):
            assert op.cols[w][i] == FockVector({mon_: F(1)})


def test_decomposition_of_the_virasoro_bracket():
    dec = central_decompose(0, 0, 1, -1, 5)
    assert isinstance(dec, CentralDecomposition)
    assert dec.ok
    assert dec.scalar_part == F(1, 12)
