import numpy as np
import pytest

from lrlsq.cgls import normal_cg_solve
from lrlsq.errors import ConvergenceFailure, DimensionMismatch, NonFiniteValue
from lrlsq.woodbury import ata_solve, prepare


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
    q1 = np.linalg.qr(rng.standard_normal((m, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.geomspace(cond, 1.0, n)
    return (q1 * s) @ q2.T


def test_identity_converges_in_one_iteration():
    c = np.array([[1.0], [-2.0], [0.5]])
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
    z_qr = ata_solve(prepare(a, np.zeros(200)), c)
    assert np.linalg.norm(z_cg - z_qr) <= 1e-8 * np.linalg.norm(z_qr)


def test_zero_rhs_short_circuits():
    z, steps = normal_cg_solve(np.eye(4), np.zeros((4, 1)))
    np.testing.assert_array_equal(z, np.zeros((4, 1)))
    assert steps.tolist() == [0]


def test_convergence_failure_carries_diagnostics():
    # cond(a)^2 = 1e8 on the normal operator: 4n = 40 steps do not reach 1e-12.
    rng = np.random.default_rng(32)
    a = _well_conditioned(rng, 50, 10, cond=1e4)
    with pytest.raises(ConvergenceFailure, match=r"within 40 steps for column\(s\) \[0, 1\]"):
        normal_cg_solve(a, rng.standard_normal((10, 2)))


def test_dimension_and_config_validation():
    with pytest.raises(DimensionMismatch):
        normal_cg_solve(np.eye(3), np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        normal_cg_solve(np.eye(3), np.ones(3))
    with pytest.raises(NonFiniteValue):
        normal_cg_solve(np.eye(3), np.array([[1.0], [np.nan], [0.0]]))
    # An (n, 0) block is refused, as woodbury's solvers refuse one.
    with pytest.raises(DimensionMismatch, match=r"^c must be an \(3, k\) matrix, got shape \(3, 0\)$"):
        normal_cg_solve(np.eye(3), np.ones((3, 0)))


@pytest.mark.filterwarnings("error")
def test_complex_rhs_raises_type_error():
    # Cast to float64 it would lose its imaginary part with a ComplexWarning.
    with pytest.raises(TypeError, match="c must be real, got dtype complex128"):
        normal_cg_solve(np.eye(3), (1 + 1j) * np.ones((3, 1)))


def test_matrix_free_contract():
    rng = np.random.default_rng(33)
    mat = rng.standard_normal((30, 6))
    log = []
    op = ProductLoggingOperator(mat, log)
    c = rng.standard_normal((6, 1))
    z, _ = normal_cg_solve(op, c)
    assert log, "solver never touched the operator"
    # only vector products were requested: nothing n x n can have been built
    assert all(ndim == 1 for _, ndim in log)
    assert {kind for kind, _ in log} == {"matvec", "rmatvec"}
    z_ref = ata_solve(prepare(mat, np.zeros(30)), c)
    assert np.linalg.norm(z - z_ref) <= 1e-8 * np.linalg.norm(z_ref)
