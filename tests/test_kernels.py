from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlsq.errors import NonFiniteValue, RankDeficient, SingularCapacitance
from lrlsq.kernels import (
    CAP_GUARD,
    COPY_BLOCK,
    EPS,
    TRIANGULAR_LEAF,
    _invert_upper,
    _norm_product,
    cholesky_rinv,
    householder_qr,
    lu_factor_checked,
)
from oracles import numerical_rank, pinv_oracle, qr_reference


def _inverse_of(r):
    """The inverse of r's upper triangle by the in-place inversion that
    both base kernels run, on a C-ordered copy of r."""
    inv = np.array(r, order="C")
    _invert_upper(inv, inv)
    return inv


# ------------------------------------------------------ the screen of a QR

def _rinv_of(a):
    """R^{-1} of a by the Householder QR that baseline_solve runs, which
    relies on its screen to find a rank-deficient or non-finite a."""
    return householder_qr(a, np.zeros(len(a)))[0]


def test_qr_identity():
    np.testing.assert_array_equal(_rinv_of(np.eye(4)), np.eye(4))


def test_qr_pythagorean_column():
    np.testing.assert_allclose(_rinv_of(np.array([[3.0], [4.0]])), [[0.2]], rtol=1e-15)


def test_qr_duplicated_columns_rank_deficient():
    col = np.random.default_rng(1).standard_normal((6, 1))
    with pytest.raises(RankDeficient):
        _rinv_of(np.hstack([col, col]))


def test_qr_zero_matrix_rank_deficient():
    with pytest.raises(RankDeficient):
        _rinv_of(np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [(0, 0), (19, 4), (7, 2), (0, 4), (19, 0)])
def test_qr_non_finite_input(bad, pos):
    a = np.random.default_rng(8).standard_normal((20, 5))
    a[pos] = bad
    with pytest.raises(NonFiniteValue):
        _rinv_of(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qr_non_finite_entry_off_the_diagonal_of_r(bad):
    # Column 0 needs no reflection, so the bad entry lands in r[0, 1] only
    # and every diagonal entry of r stays finite.
    with pytest.raises(NonFiniteValue):
        _rinv_of(np.array([[1.0, bad], [0.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------ the test's reference QR

@pytest.mark.parametrize("m,n", [(5, 2), (30, 30), (80, 17), (200, 120), (150, 200 - 80)])
def test_qr_factor_quality(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    a = rng.standard_normal((m, n))
    q, r = qr_reference(a)
    assert np.all(np.diag(r) >= 0.0)
    assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-12 * n
    assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("order", ["C", "F"])
def test_qr_reference_leaves_input_untouched(order):
    # The signs are flipped in place, on the factors, never on a.
    rng = np.random.default_rng(7)
    a = np.array(rng.standard_normal((40, 9)), order=order)
    a[:, 0] *= -1.0  # at least one diagonal entry of R changes sign
    keep = a.copy(order="K")
    q, r = qr_reference(a)
    np.testing.assert_array_equal(a, keep)
    assert not np.shares_memory(q, a) and not np.shares_memory(r, a)
    assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)


# ---------------------------------------------------------- householder_qr

@pytest.mark.parametrize("m,n", [(6, 6), (7, 6), (9, 1), (40, 9), (2 * COPY_BLOCK + 3, 5)])
def test_householder_qr_matches_qr_thin(m, n):
    # m = n makes [a | b] wider than tall, and m = n + 1 gives b a
    # reflector of its own below the top n rows; m > COPY_BLOCK crosses
    # block edges of the transposed copy. The reference is numpy's QR, the
    # call that kernels.qr_thin makes, which shares no code with
    # householder_qr.
    rng = np.random.default_rng(m * 100 + n)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    q, r = qr_reference(a)
    rinv, x = householder_qr(a, b)
    ref = np.linalg.inv(r)
    assert rinv.flags.c_contiguous
    assert np.linalg.norm(rinv - ref) <= 1e-13 * np.linalg.norm(ref)
    ref_x = ref @ (q.T @ b)
    assert np.linalg.norm(x - ref_x) <= 1e-13 * np.linalg.norm(ref_x)


@pytest.mark.parametrize("order", ["C", "F"])
def test_householder_qr_leaves_input_untouched(order):
    rng = np.random.default_rng(9)
    a = np.array(rng.standard_normal((30, 7)), order=order)
    a[:, 0] *= -1.0
    b = rng.standard_normal(30)
    u = np.array(rng.standard_normal((30, 2)), order=order)
    v = np.array(rng.standard_normal((7, 2)), order=order)
    inputs = (a, b, u, v)
    keep = [x.copy(order="K") for x in inputs]
    for h in (householder_qr(a, b), householder_qr(a, b, u, v)):
        for x, x0 in zip(inputs, keep):
            np.testing.assert_array_equal(x, x0)
        assert all(not np.shares_memory(x, y) for x in h for y in inputs)


def test_householder_qr_rank_term_matches_explicit_sum():
    # m > 2 * COPY_BLOCK with a partial last block: every block of
    # a + u v.T written into the buffer, the short one included.
    rng = np.random.default_rng(10)
    m, n, r = 2 * COPY_BLOCK + 37, 9, 3
    a = rng.standard_normal((m, n))
    u = rng.standard_normal((m, r))
    v = rng.standard_normal((n, r))
    b = rng.standard_normal(m)
    rinv, x = householder_qr(a, b, u, v)
    ref_rinv, ref_x = householder_qr(a + u @ v.T, b)
    assert np.linalg.norm(rinv - ref_rinv) <= 1e-14 * np.linalg.norm(ref_rinv)
    assert np.linalg.norm(x - ref_x) <= 1e-14 * np.linalg.norm(ref_x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["u", "v"])
def test_householder_qr_non_finite_rank_term(name, bad):
    rng = np.random.default_rng(11)
    args = {"u": rng.standard_normal((20, 2)), "v": rng.standard_normal((4, 2))}
    args[name][1, 1] = bad
    with pytest.raises(NonFiniteValue, match=r"a \+ u v\.T"):
        householder_qr(rng.standard_normal((20, 4)), np.ones(20), **args)


def test_householder_qr_least_squares_hand_checked():
    # a = [e1, -e2] needs no reflection; the sign normalization makes
    # r = I and q = a, so x = q.T b = [3, 4].
    a = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
    rinv, x = householder_qr(a, np.array([3.0, -4.0, 5.0]))
    np.testing.assert_allclose(rinv, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(x, [3.0, 4.0], atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_householder_qr_non_finite_qtb(bad):
    b = np.ones(20)
    b[0] = bad
    with pytest.raises(NonFiniteValue, match=r"\[a \| b\]"):
        householder_qr(np.random.default_rng(5).standard_normal((20, 4)), b)


# ----------------------------------------------------------- cholesky_rinv

@pytest.mark.parametrize("m,n", [(6, 6), (7, 6), (9, 1), (2053, 7), (768, 259), (2053, 1027)])
def test_cholesky_qr_matches_householder_qr(m, n):
    # n = 259 and 1027 take the recursive inverse several levels down.
    rng = np.random.default_rng(m * 100 + n)
    a = rng.standard_normal((m, n)) + 3.0 * np.eye(m, n)
    b = rng.standard_normal(m)
    rinv = cholesky_rinv(a)
    assert rinv is not None
    ref_rinv, _ = householder_qr(a, b)
    np.testing.assert_array_equal(np.tril(rinv, -1), 0.0)
    assert rinv.flags.c_contiguous
    assert np.linalg.norm(rinv - ref_rinv) <= 1e-14 * np.linalg.norm(ref_rinv)


@pytest.mark.parametrize("order", ["C", "F"])
def test_cholesky_qr_leaves_input_untouched(order):
    rng = np.random.default_rng(19)
    a = np.array(rng.standard_normal((2053, 9)), order=order)
    keep = a.copy(order="K")
    assert cholesky_rinv(a) is not None
    np.testing.assert_array_equal(a, keep)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["zero", "repeated column", "ill-conditioned", "nan in a",
                                  "inf in a", "1e-300", "1e-160", "1e200"])
def test_cholesky_qr_declines_quietly(case):
    rng = np.random.default_rng(20)
    a = rng.standard_normal((50, 6))
    if case == "zero":
        a[:] = 0.0
    elif case == "repeated column":
        a[:, 3] = a[:, 1]
    elif case == "ill-conditioned":
        # cond 1e8 passes the rank screen, but puts kappa^2 eps far above TAU.
        q, _ = np.linalg.qr(rng.standard_normal((50, 6)))
        a = q * np.geomspace(1.0, 1e-8, 6)
    elif case in ("nan in a", "inf in a"):
        a[4, 2] = np.nan if case == "nan in a" else np.inf
    else:
        a *= float(case)
    assert cholesky_rinv(a) is None


@pytest.mark.parametrize("cond", [None, 1e4])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300, 520])
def test_cholesky_rinv_in_place_matches_lapack_cholesky(n, cond):
    # cholesky_rinv factors and inverts over its Gram matrix. n = 63, 64
    # and 65 straddle the leaf of the recursive Cholesky and inversion, 129
    # splits into 64 + 65, and 300 splits three times. At 520 the
    # triangular solve for the top R12 splits at 260, 130 and 65 rows
    # before its leaves. cond None is a Gaussian base; 1e4 a graded one, singular
    # values log-spaced from 1 to 1e-4, which the certificate still passes
    # at 20 n x n.
    rng = np.random.default_rng(n)
    m = 20 * n
    if cond is None:
        a = rng.standard_normal((m, n))
    else:
        p, _ = np.linalg.qr(rng.standard_normal((m, n)))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (p * np.geomspace(1.0, 1.0 / cond, n)) @ q.T
    g = a.T @ a
    rinv = cholesky_rinv(a)
    assert rinv is not None
    r = np.linalg.cholesky(g).T
    ref = np.linalg.inv(r)

    def defect(x):
        return np.linalg.norm(x.T @ g @ x - np.eye(n))

    assert defect(rinv) <= 2.0 * defect(ref)
    assert rinv.flags.c_contiguous
    np.testing.assert_array_equal(np.tril(rinv, -1), 0.0)
    for t in (r, rinv):
        full = np.linalg.norm(t, 1) * np.linalg.norm(t, np.inf)
        assert abs(_norm_product(t) - full) <= 1e-14 * full


@pytest.mark.parametrize("n", [300, 520])
def test_cholesky_rinv_hands_lapack_leaf_blocks_only(n, monkeypatch):
    # np.linalg copies its operands into working arrays that tracemalloc
    # does not see, so test_factorization_holds_one_buffer cannot catch a
    # large block handed to it. The recursive Cholesky factorization, its
    # triangular solves and the inversion recurse until every block that
    # reaches LAPACK has at most TRIANGULAR_LEAF rows; a solve's right-hand
    # side is a strip of that many rows across its block of R12.
    rows = []
    for name in ("solve", "cholesky", "inv"):
        real = getattr(np.linalg, name)

        def recording(*operands, real=real):
            rows.extend(x.shape[0] for x in operands)
            return real(*operands)

        monkeypatch.setattr(np.linalg, name, recording)
    a = np.random.default_rng(n).standard_normal((4 * n, n))
    assert cholesky_rinv(a) is not None
    assert rows and max(rows) <= TRIANGULAR_LEAF


# ------------------------------------------ R^{-1} b, the library's solve

@lru_cache(maxsize=None)
def _graded_r(n, cond):
    """R of a graded n x n matrix, singular values log-spaced from 1 to
    1/cond; read-only, as it is shared between tests."""
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    r = qr_reference(np.geomspace(1.0, 1.0 / cond, n)[:, None] * q.T)[1]
    r.flags.writeable = False
    return r


@pytest.mark.parametrize("cols", [None, 3])
@pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 150, 300, 1000])
def test_triangular_matches_scipy_on_graded_r(n, cond, cols):
    # The library solves r x = b as x = r^{-1} b, a product with the
    # inverse every QR hands back, where scipy back-substitutes.
    # n = 63, 64, 65 straddle one leaf of the inversion; 1000 recurses four
    # times.
    r = _graded_r(n, cond)
    b = np.random.default_rng(n + 1).standard_normal(n if cols is None else (n, cols))
    x = _inverse_of(r) @ b
    ref = scipy.linalg.solve_triangular(r, b)
    assert x.shape == b.shape
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


# ----------------------------------------------------------- _invert_upper

def test_invert_upper_triangular_2x2_hand_checked():
    # [[2, 1], [0, 4]]^{-1} = [[1/2, -1/8], [0, 1/4]]
    inv = _inverse_of(np.array([[2.0, 1.0], [0.0, 4.0]]))
    np.testing.assert_array_equal(inv, [[0.5, -0.125], [0.0, 0.25]])


def test_invert_upper_triangular_3x3_hand_checked():
    # Unit upper bidiagonal with -1 off the diagonal: the inverse is the
    # upper triangle of ones.
    r = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(_inverse_of(r), np.triu(np.ones((3, 3))))


def test_invert_upper_triangular_reads_upper_triangle_only():
    r = np.array([[2.0, 1.0], [7.0, 4.0]])  # the 7 is not part of r
    inv = _inverse_of(r)
    np.testing.assert_array_equal(inv, [[0.5, -0.125], [0.0, 0.25]])
    assert inv.flags.c_contiguous


def test_invert_upper_triangular_residual_random():
    rng = np.random.default_rng(7)
    r = np.triu(rng.standard_normal((8, 8))) + 4.0 * np.eye(8)
    inv = _inverse_of(r)
    assert np.linalg.norm(r @ inv - np.eye(8)) <= 1e-12 * np.linalg.norm(r) * np.linalg.norm(inv)


@pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
def test_invert_upper_triangular_matches_trtri_on_graded_r(cond):
    # n = 300 splits three times before the leaves; R of a graded matrix,
    # log-spaced singular values from 1 to 1/cond.
    rng = np.random.default_rng(12)
    n = 300
    p, _ = np.linalg.qr(rng.standard_normal((2 * n, n)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    r = qr_reference((p * np.geomspace(1.0, 1.0 / cond, n)) @ q.T)[1]
    inv = _inverse_of(r)
    ref = np.triu(scipy.linalg.lapack.dtrtri(r)[0])
    assert inv.flags.c_contiguous and not np.tril(inv, -1).any()
    assert np.linalg.norm(inv - ref) <= 1e-13 * np.linalg.norm(ref)


# ------------------------------------------------------- lu_factor_checked

def test_lu_identity():
    assert lu_factor_checked(np.eye(3)) == pytest.approx(1.0)


def test_lu_zero_matrix():
    with pytest.raises(SingularCapacitance):
        lu_factor_checked(np.zeros((2, 2)))


def test_lu_diagonally_dominant_residual():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 4)) + 8.0 * np.eye(4)
    rcond = lu_factor_checked(c)
    ref = 1.0 / (np.abs(c).sum(axis=0).max() * np.abs(scipy.linalg.inv(c)).sum(axis=0).max())
    assert rcond == pytest.approx(ref, rel=1e-12)
    assert 0.0 < rcond <= 1.0


def test_lu_near_singular_two_by_two():
    # rcond of [[1, 1], [1, 1 + d]] is about d / 4, against the threshold
    # 2 eps CAP_GUARD = 4.4e-13: accepted at d = 1e-9, rejected at
    # d = 1e-12 and at d = 2 eps.
    assert lu_factor_checked(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])) > 2 * EPS * CAP_GUARD
    for d in (1e-12, 2 * EPS):
        with pytest.raises(SingularCapacitance, match="appears rank-deficient"):
            lu_factor_checked(np.array([[1.0, 1.0], [1.0, 1.0 + d]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lu_non_finite(bad):
    c = np.eye(3)
    c[1, 2] = bad
    with pytest.raises(SingularCapacitance):
        lu_factor_checked(c)


# ------------------------------------------------------------- pinv_oracle

def test_pinv_identity():
    np.testing.assert_allclose(pinv_oracle(np.eye(3)), np.eye(3), atol=1e-15)


def test_pinv_hand_checked():
    a = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    expected = np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(pinv_oracle(a), expected, atol=1e-15)


def test_pinv_orthonormal_columns_is_transpose():
    rng = np.random.default_rng(6)
    q = qr_reference(rng.standard_normal((9, 4)))[0]
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
