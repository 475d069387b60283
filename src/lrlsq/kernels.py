"""Dense real linear algebra kernels.

Matrices are 2-D float64 numpy arrays throughout; vectors are 1-D. The
functions here are thin, contract-checked fronts over LAPACK/BLAS (via numpy
and scipy). On-disk exchange is column-major (see ``lrlsq.mio``); in-memory
stride order is whatever the underlying routine produces (``qr_thin``'s q
is Fortran-ordered).

All operations are pure: inputs are never modified, results are fresh
arrays. They are therefore safe to call concurrently on shared read-only
data. Results are deterministic for a fixed BLAS build and thread count.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg
from numpy.linalg import lapack_lite

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    RankDeficient,
    SingularCapacitance,
    SingularMatrix,
)

EPS = float(np.finfo(np.float64).eps)


class QRFactors(NamedTuple):
    """Thin QR factorization a = q @ r.

    q has orthonormal columns (m x n) and r is upper triangular (n x n) with
    a nonnegative diagonal. For the sizes this package targets, q satisfies
    ||q.T @ q - I||_F <= 1e-12 * n and ||q @ r - a||_F <= 1e-12 * ||a||_F.
    """

    q: np.ndarray
    r: np.ndarray


def _as_2d(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    return a


def _lapack_lite(routine, *args) -> None:
    """Run a ``numpy.linalg.lapack_lite`` routine with its optimal workspace.

    An illegal argument raises ValueError (numpy's xerbla); geqrf and orgqr
    report nothing else.
    """
    work = np.empty(1)
    routine(*args, work, -1, 0)
    work = np.empty(max(1, int(work[0])))
    routine(*args, work, work.size, 0)


def qr_thin(a) -> QRFactors:
    """Thin Householder QR of a tall full-column-rank matrix.

    Runs LAPACK ``geqrf`` and then ``orgqr`` in place on one
    Fortran-ordered copy of a, so q comes back Fortran-ordered; a itself is
    not modified. Both run through ``numpy.linalg.lapack_lite``, in numpy's
    BLAS pool: scipy's pool, once woken by a multi-threaded factorization,
    keeps spinning and slows numpy's next product over a matrix (see the
    README's performance note). Signs are then normalized in place so every
    diagonal entry of r is nonnegative, which makes factors reproducible
    across LAPACK builds.

    Parameters
    ----------
    a : (m, n) array, m >= n

    Raises
    ------
    NonFiniteValue
        If a holds NaN or infinity. Householder QR carries any such entry
        into r, so this tests the n x n factor instead of making a pass
        over a.
    RankDeficient
        If a is numerically rank-deficient: some
        ``|r[i, i]| <= m * eps * max_j |r[j, j]|``, the usual
        backward-stable threshold.
    DimensionMismatch
        If a is not 2-D or has m < n.
    """
    a = _as_2d(a, "a")
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"qr_thin requires m >= n, got shape {a.shape}")
    # The C-ordered copy of a.T is a in Fortran order.
    qt = np.array(a.T, order="C")
    tau = np.empty(n)
    _lapack_lite(lapack_lite.dgeqrf, m, n, qt, max(1, m), tau)
    r = np.triu(qt[:, :n].T)
    # All of r, not just its diagonal: an entry above the diagonal stays
    # there when the columns to its left need no reflection.
    if not np.isfinite(r).all():
        raise NonFiniteValue(f"matrix of shape {a.shape} contains NaN or infinite entries")
    _lapack_lite(lapack_lite.dorgqr, m, n, n, qt, max(1, m), tau)
    q = qt.T
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q *= sign
    r *= sign[:, None]
    diag = np.abs(np.diag(r))
    if n > 0 and diag.min() <= m * EPS * diag.max():
        raise RankDeficient(
            f"matrix of shape {a.shape} is numerically rank-deficient "
            f"(min |R_ii| = {diag.min():.3e}, max = {diag.max():.3e})"
        )
    return QRFactors(q=q, r=r)


def solve_upper_triangular(r, b, transpose: bool = False) -> np.ndarray:
    """Solve ``r @ x = b`` (or ``r.T @ x = b``) for upper-triangular r.

    Back substitution via BLAS trsm; the transpose flag switches to forward
    substitution on r.T. b may be a vector or a matrix of stacked
    right-hand-side columns; the result has the same ndim.

    Raises SingularMatrix if r has a zero diagonal entry. Near-zero
    diagonals are the caller's concern (``qr_thin`` screens for them).
    """
    r = _as_2d(r, "r")
    n = r.shape[0]
    if r.shape[1] != n:
        raise DimensionMismatch(f"r must be square, got shape {r.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise DimensionMismatch(
            f"right-hand side of shape {b.shape} does not conform with r of shape {r.shape}"
        )
    if n > 0 and np.any(np.diag(r) == 0.0):
        raise SingularMatrix("triangular factor has a zero diagonal entry")
    return scipy.linalg.solve_triangular(
        r, b, trans="T" if transpose else "N", lower=False, check_finite=False
    )


def invert_upper_triangular(r) -> np.ndarray:
    """Inverse of an upper-triangular r, via LAPACK trtri.

    Only the upper triangle of r is read, as in ``solve_upper_triangular``.
    The result is upper triangular and C-contiguous, so that products
    ``c @ inv`` with a skinny row-major c run in BLAS's fast orientation.
    Costs about n^3 / 3 flops; worth it when r is solved against many times.

    Raises SingularMatrix if r has a zero diagonal entry.
    """
    r = _as_2d(r, "r")
    n = r.shape[0]
    if r.shape[1] != n:
        raise DimensionMismatch(f"r must be square, got shape {r.shape}")
    if n == 0:  # trtri rejects a zero leading dimension
        return np.zeros((0, 0))
    inv, info = scipy.linalg.lapack.dtrtri(r, lower=0)
    if info > 0:
        raise SingularMatrix(
            f"triangular factor has a zero diagonal entry at index {info - 1}"
        )
    # trtri leaves the strictly lower part of its input in place.
    return np.triu(inv)


def lu_factor_checked(c):
    """LU-factor a small square matrix and estimate its conditioning.

    Returns ``(factors, rcond)`` where ``factors`` feeds ``lu_apply`` and
    ``rcond`` is a 1-norm reciprocal condition estimate in (0, 1].

    Raises SingularCapacitance when the smallest pivot of the p x p system
    falls at or below ``p * eps * max|c|``: the system cannot be solved
    reliably.
    """
    c = _as_2d(c, "c")
    p = c.shape[0]
    if c.shape[1] != p:
        raise DimensionMismatch(f"c must be square, got shape {c.shape}")
    if p == 0:
        raise DimensionMismatch("c must be nonempty")
    cmax = float(np.abs(c).max())
    anorm = float(np.abs(c).sum(axis=0).max())
    with warnings.catch_warnings():
        # Exact singularity is our own error condition, reported below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(c, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= p * EPS * cmax:
        raise SingularCapacitance(
            f"{p} x {p} system is singular or near-singular "
            f"(min pivot {pivots.min():.3e}, max entry {cmax:.3e})"
        )
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if info != 0:  # pragma: no cover - dgecon fails only on a NaN or infinite c
        raise SingularCapacitance("condition estimation failed")
    return (lu, piv), float(rcond)


def lu_apply(factors, b) -> np.ndarray:
    """Solve against a factorization from ``lu_factor_checked``."""
    lu, piv = factors
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != lu.shape[0]:
        raise DimensionMismatch(
            f"right-hand side of shape {b.shape} does not conform with "
            f"factored system of order {lu.shape[0]}"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
