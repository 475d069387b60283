"""Matrix-free conjugate gradients on the normal equations.

``normal_cg_solve`` solves ``(a.T a) z = c`` using only products with ``a``
and ``a.T``; the n x n normal matrix is never formed, so ``a`` may be any
operator exposing ``shape``, ``@`` and ``.T``. The library's solvers do
not use it: it is kept only for the benchmark's ``cgls.*`` layers, which
time it against the factored base, and goes when those layers do.

Its right-hand side passes ``lrlsq.woodbury``'s input checks, shared
with the solvers there, so it is refused as theirs are.

It runs on two constants: each column stops once its relative residual
``||a.T a z - c|| / ||c||`` is at most ``TOL``, and fails after
``STEPS_PER_UNKNOWN * n`` steps.

Caveat: iterating on the normal operator squares the condition number of
``a``. It agrees with the ``R^{-1}`` solve of ``lrlsq.woodbury.ata_solve``
to ~1e-8 for cond(a) up to ~1e2; beyond that, expect degraded accuracy or
convergence failures.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure
from .woodbury import _operand, _require_finite

TOL = 1e-12
STEPS_PER_UNKNOWN = 4


def _cg_column(a, at, c_col, max_steps):
    """CG on the SPD operator z -> a.T (a z) for one right-hand side.

    Returns (z, steps, converged). The recurrence residual drives the
    iteration; apparent convergence is confirmed against the true residual,
    which guards the stopping test from recurrence drift at tight
    tolerances.
    """
    target = TOL * float(np.linalg.norm(c_col))
    z = np.zeros_like(c_col)
    resid = c_col.copy()
    rs = float(resid @ resid)
    if np.sqrt(rs) <= target:
        return z, 0, True
    p = resid.copy()
    steps = 0
    while steps < max_steps:
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
                return z, steps, True
            resid = true_resid
        p = resid + (rs_next / rs) * p
        rs = rs_next
    return z, steps, False


def normal_cg_solve(a, c):
    """Solve ``(a.T a) z = c`` column by column, matrix-free.

    c is an n x q block, q >= 1. Returns ``(z, steps)``: z has c's shape,
    and steps[j] counts the CG steps of column j.

    Raises TypeError when c is not a bool, integer or float array,
    DimensionMismatch when c is not an n x q block, and NonFiniteValue
    when c holds NaN or infinity, all by ``lrlsq.woodbury``'s checks; and
    ConvergenceFailure, naming the columns, when any column misses ``TOL``
    within the step cap.
    """
    n = a.shape[1]
    c = _operand(c, "c", n, (2,))
    _require_finite(c, "c")
    max_steps = STEPS_PER_UNKNOWN * n
    at = a.T

    z = np.empty_like(c)
    steps = np.zeros(c.shape[1], dtype=int)
    failed = []
    for j in range(c.shape[1]):
        z[:, j], steps[j], ok = _cg_column(a, at, c[:, j], max_steps)
        if not ok:
            failed.append(j)
    if failed:
        raise ConvergenceFailure(
            f"CG missed tol={TOL:g} within {max_steps} steps for column(s) {failed}"
        )
    return z, steps
