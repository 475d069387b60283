import numpy as np
import pytest

from conftest import draw_instance
from lrlsq.cgls import IterativeConfig, make_iterative_base, normal_cg_solve
from lrlsq.errors import ConvergenceFailure, DimensionMismatch
from lrlsq.kernels import qr_thin
from lrlsq.woodbury import LowRankUpdate, ata_solve, build_workspace, prepare, solve_updated


class ProductLoggingOperator:
    """Stands in for a matrix but only supports shape, @, and .T.

    Every product request is logged; feeding this to the CG solver proves
    the solver touches nothing beyond matvec/rmatvec (in particular, it
    can never form the n x n normal matrix).
    """

    def __init__(self, mat, log, transposed=False):
        self._mat = mat
        self._log = log
        self._transposed = transposed

    @property
    def shape(self):
        return self._mat.shape[::-1] if self._transposed else self._mat.shape

    @property
    def T(self):
        return ProductLoggingOperator(self._mat, self._log, not self._transposed)

    def __matmul__(self, other):
        other = np.asarray(other)
        self._log.append(("rmatvec" if self._transposed else "matvec", other.ndim))
        return (self._mat.T if self._transposed else self._mat) @ other


def _well_conditioned(rng, m, n, cond=10.0):
    """Matrix with prescribed condition number via random orthogonal factors."""
    q1 = qr_thin(rng.standard_normal((m, n))).q
    q2 = qr_thin(rng.standard_normal((n, n))).q
    s = np.geomspace(cond, 1.0, n)
    return (q1 * s) @ q2.T


def test_identity_converges_in_one_iteration():
    c = np.array([1.0, -2.0, 0.5])
    z, steps = normal_cg_solve(np.eye(3), c)
    np.testing.assert_allclose(z, c, atol=1e-15)
    assert steps.tolist() == [1]


def test_diagonal_finite_termination():
    # a.T a has 3 distinct eigenvalues, so CG finishes in <= 3 steps.
    a = np.vstack([np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3))])
    rng = np.random.default_rng(30)
    c = rng.standard_normal((3, 2))
    z, steps = normal_cg_solve(a, c)
    np.testing.assert_allclose((a.T @ a) @ z, c, atol=1e-10)
    assert np.all(steps <= 3)


def test_matches_qr_ata_solver():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((200, 20))
    c = rng.standard_normal((20, 3))
    z_cg, _ = normal_cg_solve(a, c)
    z_qr = ata_solve(prepare(a), c)
    assert np.linalg.norm(z_cg - z_qr) <= 1e-8 * np.linalg.norm(z_qr)


def test_zero_rhs_short_circuits():
    z, steps = normal_cg_solve(np.eye(4), np.zeros(4))
    np.testing.assert_array_equal(z, np.zeros(4))
    assert steps.tolist() == [0]


def test_convergence_failure_carries_diagnostics():
    rng = np.random.default_rng(32)
    a = _well_conditioned(rng, 50, 10, cond=50.0)
    cfg = IterativeConfig(tol=1e-12, max_iters=2)
    with pytest.raises(ConvergenceFailure) as info:
        normal_cg_solve(a, rng.standard_normal(10), cfg)
    assert info.value.iterations is not None
    assert info.value.residuals is not None
    assert np.all(info.value.iterations <= 2)


def test_dimension_and_config_validation():
    with pytest.raises(DimensionMismatch):
        normal_cg_solve(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        IterativeConfig(tol=0.0)
    with pytest.raises(ValueError):
        IterativeConfig(max_iters=0)


def test_matrix_free_contract():
    rng = np.random.default_rng(33)
    mat = rng.standard_normal((30, 6))
    log = []
    op = ProductLoggingOperator(mat, log)
    c = rng.standard_normal(6)
    z, _ = normal_cg_solve(op, c)
    assert log, "solver never touched the operator"
    # only vector products were requested: nothing n x n can have been built
    assert all(ndim == 1 for _, ndim in log)
    assert {kind for kind, _ in log} == {"matvec", "rmatvec"}
    z_ref = ata_solve(prepare(mat), c)
    assert np.linalg.norm(z - z_ref) <= 1e-8 * np.linalg.norm(z_ref)


# ------------------------------------------------------- make_iterative_base

def test_base_identity():
    b = np.array([2.0, -1.0, 0.5])
    base = make_iterative_base(np.eye(3), b)
    np.testing.assert_allclose(base.x0, b, atol=1e-14)


def test_base_orthonormal_columns():
    rng = np.random.default_rng(34)
    q = qr_thin(rng.standard_normal((12, 5))).q
    b = rng.standard_normal(12)
    base = make_iterative_base(q, b)
    np.testing.assert_allclose(base.x0, q.T @ b, atol=1e-11)


def test_base_matches_qr_prepare():
    rng = np.random.default_rng(35)
    a = rng.standard_normal((300, 30))
    b = rng.standard_normal(300)
    x_cg = make_iterative_base(a, b).x0
    x_qr = prepare(a, b).x0
    assert np.linalg.norm(x_cg - x_qr) <= 1e-8 * np.linalg.norm(x_qr)


def test_backend_equivalence_full_solve():
    rng = np.random.default_rng(36)
    for _ in range(10):
        a, b, u, v, base_qr, ws_qr = draw_instance(rng, 120, 15, 2, cond_cap=1e2)
        upd = LowRankUpdate(u, v)
        base_cg = prepare(a, b, backend="cg")
        ws_cg = build_workspace(base_cg, upd)
        x_qr = solve_updated(base_qr, upd, ws_qr, b).x
        x_cg = solve_updated(base_cg, upd, ws_cg, b).x
        assert np.linalg.norm(x_cg - x_qr) <= 1e-8 * np.linalg.norm(x_qr)


def test_prepare_backend_aliases():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((20, 4))
    b = rng.standard_normal(20)
    assert prepare(a, b, backend="cg").backend == "cg"
    with pytest.raises(ValueError, match="unknown backend"):
        prepare(a, b, backend="iterative")
