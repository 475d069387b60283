"""Matrix-free conjugate-gradient backend for normal-equation systems.

Solves ``(a.T a) z = c`` using only products with ``a`` and ``a.T``; the
n x n normal matrix is never formed, so ``a`` may be any operator exposing
``shape``, ``@`` and ``.T``. This is the fallback when no factorization of
the base matrix exists.

Caveat: iterating on the normal operator squares the condition number of
``a``. With the default tolerances the backend agrees with the direct QR
backend to ~1e-8 for cond(a) up to ~1e2; beyond that, expect degraded
accuracy or convergence failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch
from .woodbury import PreparedBase, _base_matrix, _bind_x0

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class IterativeConfig:
    """Stopping control for the CG backend.

    tol is the relative residual target ``||a.T a z - c|| <= tol * ||c||``
    per column; max_iters caps the step count (None means 4n, resolved at
    solve time).
    """

    tol: float = DEFAULT_TOL
    max_iters: Optional[int] = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


def _cg_column(a, at, c_col, tol, max_iters):
    """CG on the SPD operator z -> a.T (a z) for one right-hand side.

    Returns (z, steps, achieved, converged). The recurrence residual drives
    the iteration; apparent convergence is confirmed against the true
    residual, which guards the stopping test from recurrence drift at tight
    tolerances.
    """
    target = tol * float(np.linalg.norm(c_col))
    z = np.zeros_like(c_col)
    resid = c_col.copy()
    rs = float(resid @ resid)
    if np.sqrt(rs) <= target:
        return z, 0, np.sqrt(rs), True
    p = resid.copy()
    steps = 0
    while steps < max_iters:
        q = at @ (a @ p)
        pq = float(p @ q)
        if pq <= 0.0:
            # Normal operator is SPD for full-rank a; hitting this means the
            # search direction collapsed (rank deficiency or total stagnation).
            break
        alpha = rs / pq
        z = z + alpha * p
        resid = resid - alpha * q
        steps += 1
        rs_next = float(resid @ resid)
        if np.sqrt(rs_next) <= target:
            true_resid = c_col - at @ (a @ z)
            rs_next = float(true_resid @ true_resid)
            if np.sqrt(rs_next) <= target:
                return z, steps, np.sqrt(rs_next), True
            resid = true_resid
        p = resid + (rs_next / rs) * p
        rs = rs_next
    return z, steps, np.sqrt(rs), False


def normal_cg_solve(a, c, cfg: IterativeConfig | None = None):
    """Solve ``(a.T a) z = c`` column by column, matrix-free.

    Returns ``(z, steps)`` where steps[j] counts CG iterations for column j.
    c may be a vector or an n x q matrix; z matches its shape.

    Raises ConvergenceFailure, with per-column step counts and achieved
    relative residuals attached, if any column misses the target within the
    iteration cap.
    """
    cfg = cfg if cfg is not None else IterativeConfig()
    m, n = a.shape
    c = np.asarray(c, dtype=np.float64)
    single = c.ndim == 1
    cols = c[:, None] if single else c
    if cols.ndim != 2 or cols.shape[0] != n:
        raise DimensionMismatch(
            f"c must have {n} rows to conform with a of shape {a.shape}, "
            f"got shape {c.shape}"
        )
    if not np.all(np.isfinite(cols)):
        raise ValueError("right-hand side contains non-finite values")
    max_iters = cfg.max_iters if cfg.max_iters is not None else 4 * n
    at = a.T

    z = np.empty_like(cols)
    steps = np.zeros(cols.shape[1], dtype=int)
    rel_resid = np.zeros(cols.shape[1])
    failed = []
    for j in range(cols.shape[1]):
        zj, k, achieved, ok = _cg_column(a, at, cols[:, j], cfg.tol, max_iters)
        z[:, j] = zj
        steps[j] = k
        cnorm = float(np.linalg.norm(cols[:, j]))
        rel_resid[j] = achieved / cnorm if cnorm > 0 else 0.0
        if not ok:
            failed.append(j)
    if failed:
        raise ConvergenceFailure(
            f"CG missed tol={cfg.tol:g} within {max_iters} iterations for "
            f"column(s) {failed} (best relative residual "
            f"{rel_resid[failed].min():.3e})",
            iterations=steps,
            residuals=rel_resid,
        )
    return (z[:, 0] if single else z), steps


def make_iterative_base(a, b=None, cfg: IterativeConfig | None = None,
                        x0=None) -> PreparedBase:
    """PreparedBase whose solvers run matrix-free CG instead of QR.

    The base least squares solution is obtained through the same operator:
    ``x0 = (a.T a)^{-1} (a.T b)``. Raises NonFiniteValue when a or b holds
    NaN or infinity, and ConvergenceFailure as ``normal_cg_solve`` does.
    """
    cfg = cfg if cfg is not None else IterativeConfig()
    a = _base_matrix(a)
    m, n = a.shape

    def ata_solver(c):
        return normal_cg_solve(a, c, cfg)[0]

    def lstsq_solver(rhs):
        return ata_solver(a.T @ rhs)

    b_bound, x0_bound = _bind_x0(a, b, x0, lstsq_solver)
    return PreparedBase(
        a=a, m=m, n=n, backend="cg",
        ata_solver=ata_solver, lstsq_solver=lstsq_solver,
        b=b_bound, x0=x0_bound,
    )
