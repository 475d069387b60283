"""Least squares solves for low-rank-updated matrices.

Given a tall matrix ``a`` (m x n, full column rank) whose thin QR
factorization is already available, the minimizer of ``||b - (a + u @ v.T) x||``
can be recovered from a handful of products with ``a`` plus one small
2r x 2r linear system, instead of refactoring the modified matrix from
scratch. The arithmetic cost drops from O(m n^2) to O((r + k) m n) for k
right-hand sides, roughly an n/r-fold saving when r << n.

The machinery: with ``x_blk = [v, a.T @ u]`` (n x 2r) and
``yt = [u.T @ a + (u.T @ u) @ v.T; v.T]`` (2r x n), the updated normal
matrix is ``a.T a + x_blk @ yt``, so its inverse is a rank-2r correction of
``(a.T a)^{-1}`` controlled by the capacitance matrix ``I + yt @ z`` where
``z`` solves ``(a.T a) z = x_blk``. Singularity of that capacitance is
equivalent to the updated matrix losing full column rank, which is how the
solver detects and rejects rank-dropping updates. The n x n correction is
never materialized; ``prepare``/``build_workspace``/``solve_updated`` carry
only z (n x 2r), yt (2r x n) and the factored 2r x 2r capacitance.

With the QR backend, ``prepare`` inverts R once, so ``z`` costs two
n x n by n x 2r products instead of two triangular solves. The update
path then does all of its level-3 work through numpy's BLAS: scipy
bundles a second OpenBLAS whose thread pool, once woken by a multi-column
triangular solve, keeps spinning and slows numpy's next product over
``a`` (see the README's performance note). Skinny products are written
with the skinny operand on the left, ``u.T @ a`` rather than
``a.T @ u``, which is the faster layout for C-ordered ``a``.

Everything here is immutable after construction and pure in the solve
path: one PreparedBase may serve many workspaces, and one workspace many
right-hand sides, concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NonFiniteValue, SingularCapacitance
from .kernels import EPS

# Acceptance threshold for normal-equations residuals of supplied base
# solutions; adequate for instances with condition up to ~1e3. For
# worse-conditioned data, leave x0 out and let the base solver compute it.
NE_TOL = 1e-10

# Capacitance rejection guard: fail when rcond < 2r * eps * CAP_GUARD.
# Separates genuine rank drop (rcond at roundoff level) from mild
# ill-conditioning, which the solver tolerates.
CAP_GUARD = 1e3


@dataclass(frozen=True)
class PreparedBase:
    """Reusable solver state for one base matrix.

    Bundles the base matrix, solver closures for ``a.T a``-systems and for
    base least squares problems, and optionally the base solution ``x0``
    bound to one right-hand side ``b``. Built by :func:`prepare` (direct QR
    backend) or :func:`lrlsq.cgls.make_iterative_base` (matrix-free CG
    backend). Immutable; share freely across updates and threads.
    """

    a: np.ndarray
    m: int
    n: int
    backend: str
    ata_solver: Callable[[np.ndarray], np.ndarray]
    lstsq_solver: Callable[[np.ndarray], np.ndarray]
    b: Optional[np.ndarray] = None
    x0: Optional[np.ndarray] = None


@dataclass(frozen=True)
class LowRankUpdate:
    """A rank-r modification ``u @ v.T`` of an m x n base matrix.

    u is m x r and v is n x r with 1 <= r <= n <= m.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2:
            raise DimensionMismatch("u and v must be 2-D matrices")
        if u.shape[1] != v.shape[1]:
            raise DimensionMismatch(
                f"u and v must share a column count, got {u.shape} and {v.shape}"
            )
        r = u.shape[1]
        if not 1 <= r <= v.shape[0] <= u.shape[0]:
            raise DimensionMismatch(
                f"update requires 1 <= r <= n <= m, got m={u.shape[0]}, "
                f"n={v.shape[0]}, r={r}"
            )
        _require_finite(u, "u")
        _require_finite(v, "v")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def rank(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class UpdateWorkspace:
    """Per-update state, reusable across right-hand sides.

    x_blk : n x 2r block ``[v, a.T @ u]``.
    yt    : 2r x n block ``[u.T @ a + (u.T u) v.T; v.T]``; shares the one
            product u.T @ a with x_blk rather than touching the updated
            matrix.
    z     : n x 2r solution of ``(a.T a) z = x_blk``; its first r columns
            are ``(a.T a)^{-1} v``, reused by the solve step.
    cap_factors, cap_rcond : LU factorization and reciprocal condition
            estimate of the 2r x 2r capacitance ``I + yt @ z``.
    """

    x_blk: np.ndarray
    yt: np.ndarray
    z: np.ndarray
    cap_factors: tuple
    cap_rcond: float
    rank: int


@dataclass(frozen=True)
class SolveOutcome:
    """Solution of one updated least squares problem.

    cap_rcond is the workspace's capacitance condition diagnostic, in
    (0, 1]. ne_residual, when requested, is ``||ahat.T (ahat x - b)||_2``
    with ``ahat = a + u v.T``, the normal-equations certificate.
    """

    x: np.ndarray
    cap_rcond: float
    ne_residual: Optional[float] = None


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_finite(x: np.ndarray, name: str) -> None:
    """Raise NonFiniteValue if x holds NaN or infinity.

    The sum is non-finite whenever an entry is, and unlike ``np.isfinite(x)``
    it allocates nothing the size of x; only a sum that overflows on finite
    entries takes the exact test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = x.sum()
    if not np.isfinite(total) and not np.isfinite(x).all():
        raise NonFiniteValue(f"{name} contains NaN or infinite entries")


def _base_matrix(a) -> np.ndarray:
    """Validate a base matrix for either backend: 2-D, m >= n, finite."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"a must be a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"base requires m >= n, got shape {a.shape}")
    _require_finite(a, "a")
    return a


def updated_normal_residual(a, u, v, x, b) -> float:
    """``||ahat.T (ahat x - b)||_2`` without forming ``ahat = a + u v.T``."""
    rr = a @ x + u @ (v.T @ x) - b
    return float(np.linalg.norm(a.T @ rr + v @ (u.T @ rr)))


def _bind_x0(a, b, x0, lstsq_solver):
    """Normalize and validate the optional (b, x0) pair of a prepared base."""
    if b is None:
        if x0 is not None:
            raise ValueError("x0 supplied without the b it solves for")
        return None, None
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    if b.ndim != 1 or b.shape[0] != m:
        raise DimensionMismatch(f"b must be a length-{m} vector, got shape {b.shape}")
    _require_finite(b, "b")
    if x0 is None:
        x0 = lstsq_solver(b)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim != 1 or x0.shape[0] != n:
            raise DimensionMismatch(
                f"x0 must be a length-{n} vector, got shape {x0.shape}"
            )
        anorm = float(np.linalg.norm(a))
        resid = float(np.linalg.norm(a.T @ (a @ x0 - b)))
        bound = NE_TOL * anorm**2 * (np.linalg.norm(x0) + np.linalg.norm(b) / anorm)
        # NaN compares False, and an infinite x0 makes the bound infinite.
        if not (resid <= bound < np.inf):
            raise ValueError(
                f"supplied x0 does not solve the base least squares problem "
                f"(normal-equations residual {resid:.3e} > {bound:.3e})"
            )
    return _freeze(b.copy()), _freeze(np.array(x0, dtype=np.float64))


def prepare(a, b=None, backend: str = "qr", x0=None, cfg=None) -> PreparedBase:
    """Factor the base matrix once, for reuse across many updates.

    With the default "qr" backend this computes the thin QR of ``a``,
    inverts R once (about n^3 / 3 flops beside the QR's 2 m n^2), and
    installs ``(a.T a)^{-1} c = R^{-1} (R^{-T} c)`` as two matrix products
    with that inverse. Base least squares solves, such as the one for ``b``,
    stay a single triangular solve, ``R x = Q.T rhs``. Backend "cg" installs
    the matrix-free conjugate-gradient solver from :mod:`lrlsq.cgls`
    instead; ``cfg`` is its IterativeConfig.

    If ``b`` is given, the base solution ``x0`` is computed and bound to it
    (or validated against it, if supplied). Solves against a different b
    later simply cost one extra base solve.

    Raises NonFiniteValue when a or b holds NaN or infinity, and
    RankDeficient when a lacks full column rank (QR backend).
    """
    if backend == "cg":
        from .cgls import make_iterative_base

        return make_iterative_base(a, b=b, cfg=cfg, x0=x0)
    if backend != "qr":
        raise ValueError(f"unknown backend {backend!r}; expected 'qr' or 'cg'")

    a = _base_matrix(a)
    m, n = a.shape
    f = kernels.qr_thin(a)
    rinv = kernels.invert_upper_triangular(f.r)

    def ata_solver(c):
        # (R^{-T} c).T = c.T R^{-1}, then R^{-1} y = (y.T R^{-T}).T: both
        # products keep the skinny operand on the left of the n x n inverse.
        return ((c.T @ rinv) @ rinv.T).T

    def lstsq_solver(rhs):
        return kernels.solve_upper_triangular(f.r, f.q.T @ rhs)

    b_bound, x0_bound = _bind_x0(a, b, x0, lstsq_solver)
    return PreparedBase(
        a=a, m=m, n=n, backend="qr",
        ata_solver=ata_solver, lstsq_solver=lstsq_solver,
        b=b_bound, x0=x0_bound,
    )


def ata_solve(base: PreparedBase, c) -> np.ndarray:
    """Solve ``(a.T a) z = c`` through the base's installed solver.

    c may hold several stacked columns. With the QR backend this is two
    products with the prepared R^{-1}; with the CG backend, one CG run per
    column. The result z satisfies
    ``||a.T a z - c||_F <= ~1e-10 ||a.T a||_F ||z||_F`` on well-conditioned
    instances (instance-dependent; the bound degrades with cond(a)^2).
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape[0] != base.n:
        raise DimensionMismatch(
            f"c must have {base.n} rows to conform with the base, got shape {c.shape}"
        )
    return base.ata_solver(c)


def build_workspace(base: PreparedBase, upd: LowRankUpdate) -> UpdateWorkspace:
    """Assemble the per-update state: blocks, 2r system solves, capacitance.

    Costs one r x m by m x n product ``u.T @ a``, which both blocks share,
    plus 2r solves against ``a.T a``; after this, every right-hand side is
    an O(mn) solve.

    Raises SingularCapacitance when ``I + yt @ z`` is singular or its
    estimated rcond falls below ``2r * eps * CAP_GUARD``, the signature of
    an update that destroys full column rank.
    """
    u, v, r = upd.u, upd.v, upd.rank
    if u.shape[0] != base.m or v.shape[0] != base.n:
        raise DimensionMismatch(
            f"update of shapes u={u.shape}, v={v.shape} does not conform "
            f"with base of shape ({base.m}, {base.n})"
        )
    uta = u.T @ base.a
    x_blk = np.hstack([v, uta.T])
    yt = np.vstack([uta + (u.T @ u) @ v.T, v.T])
    z = ata_solve(base, x_blk)
    cap = np.eye(2 * r) + yt @ z
    cap_factors, cap_rcond = kernels.lu_factor_checked(cap)
    if cap_rcond < 2 * r * EPS * CAP_GUARD:
        raise SingularCapacitance(
            f"capacitance rcond {cap_rcond:.3e} below threshold "
            f"{2 * r * EPS * CAP_GUARD:.3e}: updated matrix appears rank-deficient"
        )
    return UpdateWorkspace(
        x_blk=_freeze(x_blk), yt=_freeze(yt), z=_freeze(z),
        cap_factors=cap_factors, cap_rcond=cap_rcond, rank=r,
    )


def solve_updated(base: PreparedBase, upd: LowRankUpdate, ws: UpdateWorkspace,
                  b, check_residual: bool = False) -> SolveOutcome:
    """Minimize ``||b - (a + u v.T) x||_2`` using the prepared state.

    The solve runs

        w    = x0 + z[:, :r] @ (u.T @ b)
        x    = w - z @ solve(I + yt @ z, yt @ w)

    where x0 is reused from the base when b matches the bound right-hand
    side and recomputed through the base solver otherwise. Intermediates
    stay O(r)-sized: yt @ w first, then the capacitance solve, then one
    n x 2r product.

    With ``check_residual`` the outcome carries the normal-equations
    residual of x as a certificate (costs two extra passes over a).

    Raises NonFiniteValue when b is not the bound right-hand side and holds
    NaN or infinity.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.shape[0] != base.m:
        raise DimensionMismatch(
            f"b must be a length-{base.m} vector, got shape {b.shape}"
        )
    if base.x0 is not None and base.b is not None and np.array_equal(b, base.b):
        x0 = base.x0
    else:
        # The bound b was screened by prepare; any other b is screened here,
        # beside the pass over the base that its solve costs anyway.
        _require_finite(b, "b")
        x0 = base.lstsq_solver(b)
    w = x0 + ws.z[:, : ws.rank] @ (upd.u.T @ b)
    x = w - ws.z @ kernels.lu_apply(ws.cap_factors, ws.yt @ w)
    ne = updated_normal_residual(base.a, upd.u, upd.v, x, b) if check_residual else None
    return SolveOutcome(x=x, cap_rcond=ws.cap_rcond, ne_residual=ne)


def solve_many(base: PreparedBase, upd: LowRankUpdate, ws: UpdateWorkspace,
               bs) -> np.ndarray:
    """Solve the updated problem for every column of ``bs`` (m x k).

    The workspace (z and the factored capacitance) is shared across all k
    columns; only the k base solves and O(r)-sized work scale with k.
    Column j of the result is exactly (bitwise) what ``solve_updated``
    returns on ``bs[:, j]``, because each column runs the identical
    per-column path.
    """
    bs = np.asarray(bs, dtype=np.float64)
    if bs.ndim != 2 or bs.shape[0] != base.m:
        raise DimensionMismatch(
            f"bs must be an ({base.m}, k) matrix, got shape {bs.shape}"
        )
    if bs.shape[1] < 1:
        raise DimensionMismatch("bs must have at least one column")
    cols = [solve_updated(base, upd, ws, bs[:, j]).x for j in range(bs.shape[1])]
    return np.column_stack(cols)


def pinv_update_explicit(a, u, v) -> np.ndarray:
    """Explicit n x m pseudoinverse of ``a + u @ v.T`` via the update path.

    Column j of the pseudoinverse is the updated least squares solution for
    the unit vector ``e_j``, so this is ``solve_many`` on the m x m identity.
    It costs m base solves and materializes dense m x m and n x m matrices,
    so it is meant for validation at modest sizes (roughly m <= 500), not
    for solving.

    Raises RankDeficient (base rank-deficient) or SingularCapacitance
    (update kills full rank).
    """
    upd = LowRankUpdate(u, v)
    base = prepare(a)
    ws = build_workspace(base, upd)
    return solve_many(base, upd, ws, np.eye(base.m))


def baseline_solve(a, u, v, b) -> np.ndarray:
    """From-scratch thin-QR solve of ``min ||b - (a + u v.T) x||_2``.

    Assembles the updated matrix, factors it, and back-substitutes. This is
    the correctness oracle and the timing baseline the update path is
    measured against.

    Raises NonFiniteValue when a, u, v or b holds NaN or infinity (for a,
    u and v through ``qr_thin``'s test of the factor), and RankDeficient
    when ``a + u v.T`` lacks full column rank.
    """
    a = np.asarray(a, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _require_finite(b, "b")
    ahat = a + u @ v.T
    f = kernels.qr_thin(ahat)
    return kernels.solve_upper_triangular(f.r, f.q.T @ b)
