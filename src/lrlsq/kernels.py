"""Dense real linear algebra kernels.

Matrices are 2-D float64 numpy arrays throughout; vectors are 1-D. The
functions here are thin, contract-checked fronts over LAPACK/BLAS (via numpy
and scipy). On-disk exchange is column-major (see ``lrlsq.mio``); in-memory
stride order is whatever the underlying routine produces (``qr_thin``'s q
is Fortran-ordered).

The base QR is ``householder_qr``: it factors a, or ``[a | b]``, and
returns r, ``q.T @ b`` and the Householder reflectors, which is all the
library needs; it never forms q. ``form_q`` turns the reflectors into q,
in place, and ``qr_thin`` is the two in sequence. Those two, with
``QRFactors``, are kept only for tests and for the benchmark's
``kernels.qr_thin`` layer.

Every function but ``form_q`` is pure: inputs are never modified, results
are fresh arrays, so they are safe to call concurrently on shared read-only
data. ``form_q`` consumes the reflectors it is given. Results are
deterministic for a fixed BLAS build and thread count.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Optional

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


# Rows of a per block of the transposed copy in ``householder_qr``; a
# 256 x n block of a and its n x 256 image stay in the caches together.
COPY_BLOCK = 256


class QRFactors(NamedTuple):
    """Thin QR factorization a = q @ r.

    q has orthonormal columns (m x n) and r is upper triangular (n x n) with
    a nonnegative diagonal. For the sizes this package targets, q satisfies
    ||q.T @ q - I||_F <= 1e-12 * n and ||q @ r - a||_F <= 1e-12 * ||a||_F.
    """

    q: np.ndarray
    r: np.ndarray


class Householder(NamedTuple):
    """Householder QR of a, or of ``[a | b]``, with q not yet formed.

    r is the n x n factor of a, upper triangular with a nonnegative
    diagonal, as in QRFactors. qtb is ``q.T @ b`` for the q that
    ``form_q`` builds (None without b). reflectors is LAPACK geqrf's output
    in Fortran order, held as its C-ordered transpose: row j is column j of
    the factored matrix, with the Householder vectors below the diagonal.
    tau holds their scalar factors.
    """

    r: np.ndarray
    qtb: Optional[np.ndarray]
    reflectors: np.ndarray
    tau: np.ndarray


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


def householder_qr(a, b=None) -> Householder:
    """Factor a tall full-column-rank a, or ``[a | b]``, without forming q.

    Copies a (and b) once into Fortran order, block by block, and runs
    LAPACK ``geqrf`` in place through ``numpy.linalg.lapack_lite``, in
    numpy's BLAS pool: scipy's pool, once woken by a multi-threaded
    factorization, keeps spinning and slows numpy's next product over a
    matrix (see the README's performance note). Neither a nor b is
    modified. Signs are then normalized so every diagonal entry of r is
    nonnegative, which makes factors reproducible across LAPACK builds.

    With b, this is Golub's Householder least squares method: the
    reflectors that triangularize a also carry b, so the top n entries of
    the last column are ``q.T @ b``, and ``r x = qtb`` solves
    ``min ||a x - b||`` with no q at all. ``form_q`` builds q from the
    result when it is needed.

    Parameters
    ----------
    a : (m, n) array, m >= n
    b : (m,) array, optional. A NaN or infinity in b shows in qtb only
        where a reflector carries it there, so a caller that cannot rule
        them out screens b itself.

    Raises
    ------
    NonFiniteValue
        If r or qtb is not finite. Householder QR carries any NaN or
        infinity of a into r, so this tests the n x n factor instead of
        making a pass over a.
    RankDeficient
        If a is numerically rank-deficient: some
        ``|r[i, i]| <= m * eps * max_j |r[j, j]|``, the usual
        backward-stable threshold.
    DimensionMismatch
        If a is not 2-D or has m < n, or b is not a length-m vector.
    """
    a = _as_2d(a, "a")
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"QR requires m >= n, got shape {a.shape}")
    cols = n
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (m,):
            raise DimensionMismatch(f"b must be a length-{m} vector, got shape {b.shape}")
        cols = n + 1
    # Row j of qt is column j of [a | b], so qt is [a | b] in Fortran order.
    qt = np.empty((cols, m))
    for i in range(0, m, COPY_BLOCK):
        qt[:n, i:i + COPY_BLOCK] = a[i:i + COPY_BLOCK].T
    if b is not None:
        qt[n] = b
    tau = np.empty(min(m, cols))
    _lapack_lite(lapack_lite.dgeqrf, m, cols, qt, max(1, m), tau)
    r = np.triu(qt[:n, :n].T)
    qtb = None if b is None else qt[n, :n].copy()
    # All of r, not just its diagonal: an entry above the diagonal stays
    # there when the columns to its left need no reflection.
    if not (np.isfinite(r).all() and (qtb is None or np.isfinite(qtb).all())):
        what = "matrix" if b is None else "[a | b]"
        raise NonFiniteValue(f"{what} of shape ({m}, {cols}) contains NaN or infinite entries")
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    r *= sign[:, None]
    if qtb is not None:
        qtb *= sign
    diag = np.diag(r)
    if n > 0 and diag.min() <= m * EPS * diag.max():
        raise RankDeficient(
            f"matrix of shape {a.shape} is numerically rank-deficient "
            f"(min |R_ii| = {diag.min():.3e}, max = {diag.max():.3e})"
        )
    return Householder(r=r, qtb=qtb, reflectors=qt, tau=tau)


def form_q(h: Householder) -> np.ndarray:
    """The m x n q of a ``householder_qr`` result, Fortran-ordered.

    Runs LAPACK ``orgqr`` in place on ``h.reflectors``, so q shares their
    memory and h cannot give a second q: call this once per factorization.
    Columns then take the signs that made r's diagonal nonnegative, so
    ``q @ h.r`` reproduces a and ``q.T @ b`` equals ``h.qtb``.
    """
    qt, tau = h.reflectors, h.tau
    n = h.r.shape[0]
    m = qt.shape[1]
    # The diagonal of the unnormalized r, before orgqr overwrites it.
    sign = np.where(np.diagonal(qt[:n, :n]) < 0.0, -1.0, 1.0)
    _lapack_lite(lapack_lite.dorgqr, m, n, n, qt, max(1, m), tau)
    q = qt[:n].T
    q *= sign
    return q


def qr_thin(a) -> QRFactors:
    """Thin Householder QR of a tall full-column-rank matrix.

    ``householder_qr`` and then ``form_q``: one Fortran-ordered copy of a,
    LAPACK ``geqrf`` and ``orgqr`` in place on it, so q comes back
    Fortran-ordered; a itself is not modified. Raises as
    ``householder_qr`` does: NonFiniteValue, RankDeficient or
    DimensionMismatch.
    """
    h = householder_qr(a)
    return QRFactors(q=form_q(h), r=h.r)


def solve_upper_triangular(r, b, transpose: bool = False) -> np.ndarray:
    """Solve ``r @ x = b`` (or ``r.T @ x = b``) for upper-triangular r.

    Back substitution via BLAS trsm; the transpose flag switches to forward
    substitution on r.T. b may be a vector or a matrix of stacked
    right-hand-side columns; the result has the same ndim.

    Raises SingularMatrix if r has a zero diagonal entry. Near-zero
    diagonals are the caller's concern (``householder_qr`` screens for them).
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
