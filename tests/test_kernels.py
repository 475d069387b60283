import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlsq.errors import (
    DimensionMismatch,
    NonFiniteValue,
    RankDeficient,
    SingularCapacitance,
    SingularMatrix,
)
from lrlsq.kernels import (
    invert_upper_triangular,
    lu_apply,
    lu_factor_checked,
    qr_thin,
    solve_upper_triangular,
)
from oracles import numerical_rank, pinv_oracle


# ---------------------------------------------------------------- qr_thin

def test_qr_identity():
    f = qr_thin(np.eye(4))
    np.testing.assert_array_equal(f.q, np.eye(4))
    np.testing.assert_array_equal(f.r, np.eye(4))


def test_qr_pythagorean_column():
    f = qr_thin(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(f.r, [[5.0]], rtol=1e-15)
    np.testing.assert_allclose(f.q, [[0.6], [0.8]], rtol=1e-14)
    np.testing.assert_allclose(f.q.T @ f.q, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(f.q @ f.r, [[3.0], [4.0]], rtol=1e-15)


def test_qr_duplicated_columns_rank_deficient():
    rng = np.random.default_rng(1)
    col = rng.standard_normal((6, 1))
    with pytest.raises(RankDeficient):
        qr_thin(np.hstack([col, col]))


def test_qr_zero_matrix_rank_deficient():
    with pytest.raises(RankDeficient):
        qr_thin(np.zeros((3, 2)))


def test_qr_rejects_wide():
    with pytest.raises(DimensionMismatch):
        qr_thin(np.zeros((2, 3)))


@pytest.mark.parametrize("m,n", [(5, 2), (30, 30), (80, 17), (200, 120), (150, 200 - 80)])
def test_qr_factor_quality(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    a = rng.standard_normal((m, n))
    f = qr_thin(a)
    assert np.all(np.diag(f.r) >= 0.0)
    assert np.linalg.norm(f.q.T @ f.q - np.eye(n)) <= 1e-12 * n
    assert np.linalg.norm(f.q @ f.r - a) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("order", ["C", "F"])
def test_qr_thin_leaves_input_untouched(order):
    # The signs are flipped in place, on the factors, never on a.
    rng = np.random.default_rng(7)
    a = np.array(rng.standard_normal((40, 9)), order=order)
    a[:, 0] *= -1.0  # at least one diagonal entry of R changes sign
    keep = a.copy(order="K")
    f = qr_thin(a)
    np.testing.assert_array_equal(a, keep)
    assert not np.shares_memory(f.q, a) and not np.shares_memory(f.r, a)
    assert f.q.flags.f_contiguous
    assert np.linalg.norm(f.q @ f.r - a) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [(0, 0), (19, 4), (7, 2), (0, 4), (19, 0)])
def test_qr_non_finite_input(bad, pos):
    a = np.random.default_rng(8).standard_normal((20, 5))
    a[pos] = bad
    with pytest.raises(NonFiniteValue):
        qr_thin(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qr_non_finite_entry_off_the_diagonal_of_r(bad):
    # Column 0 needs no reflection, so the bad entry lands in r[0, 1] only
    # and every diagonal entry of r stays finite.
    with pytest.raises(NonFiniteValue):
        qr_thin(np.array([[1.0, bad], [0.0, 1.0], [0.0, 0.0]]))


# --------------------------------------------------- solve_upper_triangular

def test_triangular_identity():
    b = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(solve_upper_triangular(np.eye(4), b), b)


def test_triangular_diagonal():
    out = solve_upper_triangular(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_triangular_residual_random():
    rng = np.random.default_rng(2)
    r = np.triu(rng.standard_normal((5, 5))) + 5.0 * np.eye(5)
    b = rng.standard_normal((5, 3))
    x = solve_upper_triangular(r, b)
    assert np.linalg.norm(r @ x - b) <= 1e-12 * np.linalg.norm(r) * np.linalg.norm(x)


def test_triangular_transpose_forward_substitution():
    rng = np.random.default_rng(3)
    r = np.triu(rng.standard_normal((6, 6))) + 4.0 * np.eye(6)
    b = rng.standard_normal(6)
    x = solve_upper_triangular(r, b, transpose=True)
    assert np.linalg.norm(r.T @ x - b) <= 1e-12 * np.linalg.norm(r) * np.linalg.norm(x)


def test_triangular_zero_diagonal():
    r = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrix):
        solve_upper_triangular(r, np.ones(2))


def test_triangular_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_upper_triangular(np.eye(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        solve_upper_triangular(np.zeros((3, 2)), np.ones(3))


def test_two_triangular_solves_invert_normal_matrix():
    # R^{-1} R^{-T} applied to c solves (a.T a) z = c.
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 12))
    c = rng.standard_normal((12, 3))
    f = qr_thin(a)
    z = solve_upper_triangular(f.r, solve_upper_triangular(f.r, c, transpose=True))
    ata = a.T @ a
    assert (np.linalg.norm(ata @ z - c)
            <= 1e-10 * np.linalg.norm(ata) * np.linalg.norm(z))


# ------------------------------------------------- invert_upper_triangular

def test_invert_upper_triangular_2x2_hand_checked():
    # [[2, 1], [0, 4]]^{-1} = [[1/2, -1/8], [0, 1/4]]
    inv = invert_upper_triangular(np.array([[2.0, 1.0], [0.0, 4.0]]))
    np.testing.assert_array_equal(inv, [[0.5, -0.125], [0.0, 0.25]])


def test_invert_upper_triangular_3x3_hand_checked():
    # Unit upper bidiagonal with -1 off the diagonal: the inverse is the
    # upper triangle of ones.
    r = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(invert_upper_triangular(r), np.triu(np.ones((3, 3))))


def test_invert_upper_triangular_reads_upper_triangle_only():
    r = np.array([[2.0, 1.0], [7.0, 4.0]])  # the 7 is not part of r
    inv = invert_upper_triangular(r)
    np.testing.assert_array_equal(inv, [[0.5, -0.125], [0.0, 0.25]])
    assert inv.flags.c_contiguous


def test_invert_upper_triangular_residual_random():
    rng = np.random.default_rng(7)
    r = np.triu(rng.standard_normal((8, 8))) + 4.0 * np.eye(8)
    inv = invert_upper_triangular(r)
    assert np.linalg.norm(r @ inv - np.eye(8)) <= 1e-12 * np.linalg.norm(r) * np.linalg.norm(inv)


def test_invert_upper_triangular_zero_diagonal():
    r = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 5.0]])
    with pytest.raises(SingularMatrix, match="index 1"):
        invert_upper_triangular(r)


def test_invert_upper_triangular_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        invert_upper_triangular(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        invert_upper_triangular(np.ones(3))


# ------------------------------------------------------- lu_factor_checked

def test_lu_identity():
    b = np.arange(6.0).reshape(3, 2)
    factors, rcond = lu_factor_checked(np.eye(3))
    np.testing.assert_array_equal(lu_apply(factors, b), b)
    assert rcond == pytest.approx(1.0)


def test_lu_zero_matrix():
    with pytest.raises(SingularCapacitance):
        lu_factor_checked(np.zeros((2, 2)))


def test_lu_diagonally_dominant_residual():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 4)) + 8.0 * np.eye(4)
    b = rng.standard_normal((4, 2))
    factors, rcond = lu_factor_checked(c)
    x = lu_apply(factors, b)
    assert np.linalg.norm(c @ x - b) <= 1e-12 * np.linalg.norm(c) * np.linalg.norm(x)
    assert 0.0 < rcond <= 1.0


def test_lu_dimension_checks():
    with pytest.raises(DimensionMismatch):
        lu_factor_checked(np.zeros((2, 3)))
    factors, _ = lu_factor_checked(np.eye(2))
    with pytest.raises(DimensionMismatch):
        lu_apply(factors, np.ones(3))


# ------------------------------------------------------------- pinv_oracle

def test_pinv_identity():
    np.testing.assert_allclose(pinv_oracle(np.eye(3)), np.eye(3), atol=1e-15)


def test_pinv_hand_checked():
    a = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    expected = np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(pinv_oracle(a), expected, atol=1e-15)


def test_pinv_orthonormal_columns_is_transpose():
    rng = np.random.default_rng(6)
    q = qr_thin(rng.standard_normal((9, 4))).q
    np.testing.assert_allclose(pinv_oracle(q), q.T, atol=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_pinv_penrose_conditions(seed):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(3, 51))
    n = int(rng.integers(1, m + 1))
    a = rng.standard_normal((m, n))
    if np.linalg.cond(a) > 1e3:
        pytest.skip("pathological draw")
    p = pinv_oracle(a)
    assert np.linalg.norm(a @ p @ a - a) <= 1e-10 * np.linalg.norm(a)
    assert np.linalg.norm(p @ a @ p - p) <= 1e-10 * np.linalg.norm(p)
    assert np.linalg.norm((a @ p) - (a @ p).T) <= 1e-10 * np.linalg.norm(a @ p)
    assert np.linalg.norm((p @ a) - (p @ a).T) <= 1e-10


def test_pinv_propagates_rank_deficiency():
    with pytest.raises(RankDeficient):
        pinv_oracle(np.zeros((4, 2)))


# ---------------------------------------------------------- numerical_rank

def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 4)), 1e-8) == 0


def test_numerical_rank_identity():
    assert numerical_rank(np.eye(5), 1e-8) == 5


def test_numerical_rank_rejects_negative_tol():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), -1.0)


@settings(max_examples=30)
@given(
    u=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=6),
    v=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=6),
)
def test_numerical_rank_outer_product(u, v):
    u = np.asarray(u)
    v = np.asarray(v)
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return
    assert numerical_rank(np.outer(u, v), 1e-8) == 1
