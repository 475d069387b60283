"""Dense real linear algebra kernels.

Matrices are 2-D float64 numpy arrays throughout; vectors are 1-D. The
functions here are thin, contract-checked fronts over LAPACK/BLAS, all
through numpy, so one BLAS thread pool serves them. On-disk exchange is
column-major (see ``lrlsq.mio``); in-memory stride order is whatever the
underlying routine produces (``qr_thin``'s q is Fortran-ordered).

There are two base QRs, and both return r and ``q.T @ b`` without
forming q. ``cholesky_qr`` runs certified CholeskyQR2: two Gram passes
over a, in row blocks, with no m x n copy. It returns None when it cannot
certify that its r is as good as a Householder r, that is, when a is
ill-conditioned for its size. ``householder_qr`` always applies. It
factors a, or ``[a | b]``, optionally with a rank-r term ``u @ v.T`` added
to a, in one Fortran-ordered copy, and it also returns the reflectors.
``woodbury.prepare`` tries ``cholesky_qr`` first and falls back to
``householder_qr``. The from-scratch comparator ``baseline_solve``, and
``qr_thin``, stay on Householder alone: it needs no certificate, and the
measured speedups are quoted against it. ``form_q`` turns the reflectors
into q, in place, and ``qr_thin`` is the two in sequence. Those two, with
``QRFactors``, are kept only for tests and for the benchmark's
``kernels.qr_thin`` layer.

Every function but ``form_q`` is pure: inputs are never modified, results
are fresh arrays, so they are safe to call concurrently on shared read-only
data. ``form_q`` consumes the reflectors it is given. Results are
deterministic for a fixed BLAS build and thread count.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import lapack_lite

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    RankDeficient,
    SingularCapacitance,
    SingularMatrix,
)

EPS = float(np.finfo(np.float64).eps)
SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


# Rows of a per block of the transposed copy in ``householder_qr``; a
# 256 x n block of a and its n x 256 image stay in the caches together.
COPY_BLOCK = 256

# Columns of the largest diagonal block that ``solve_upper_triangular`` and
# ``invert_upper_triangular`` hand to ``np.linalg.solve`` or ``np.linalg.inv``.
TRIANGULAR_LEAF = 64

# Most rows of a per block of ``cholesky_qr``'s second pass, and columns
# per product in its triangular products.
GRAM_BLOCK = 2048
TRIANGULAR_PANEL = 256


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


def householder_qr(a, b=None, u=None, v=None) -> Householder:
    """Factor a tall full-column-rank a, or ``[a | b]``, without forming q.

    Copies a (and b) once into Fortran order, block by block, and runs
    LAPACK ``geqrf`` in place through ``numpy.linalg.lapack_lite``. None
    of a, b, u, v is modified. Signs are then normalized so every diagonal
    entry of r is nonnegative, which makes factors reproducible across
    LAPACK builds.

    With a rank-r term (u, v) the factored matrix is ``a + u @ v.T``:
    each block of it is written straight into the Fortran-ordered buffer,
    ``v @ u[i:j].T`` by BLAS and then a's block added in place, so no
    m x n array but that buffer is made.

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
    u, v : (m, r) and (n, r) arrays, optional, given together.

    Raises
    ------
    NonFiniteValue
        If r or qtb is not finite. Householder QR carries any NaN or
        infinity of a (or of u and v) into r, so this tests the n x n
        factor instead of making a pass over a.
    RankDeficient
        If a is numerically rank-deficient: some
        ``|r[i, i]| <= m * eps * max_j |r[j, j]|``, the usual
        backward-stable threshold.
    DimensionMismatch
        If a is not 2-D or has m < n, b is not a length-m vector, or u and
        v are not 2-D, do not conform with a or differ in column count.
    """
    a = _as_2d(a, "a")
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"QR requires m >= n, got shape {a.shape}")
    if (u is None) != (v is None):
        raise DimensionMismatch("u and v must be given together")
    if u is not None:
        u, v = _as_2d(u, "u"), _as_2d(v, "v")
        if u.shape[0] != m or v.shape[0] != n or u.shape[1] != v.shape[1]:
            raise DimensionMismatch(
                f"update of shapes u={u.shape}, v={v.shape} does not conform "
                f"with a of shape {a.shape}"
            )
    cols = n
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (m,):
            raise DimensionMismatch(f"b must be a length-{m} vector, got shape {b.shape}")
        cols = n + 1
    # Row j of qt is column j of [a | b], so qt is [a | b] in Fortran order.
    qt = np.empty((cols, m))
    for i in range(0, m, COPY_BLOCK):
        dst = qt[:n, i:i + COPY_BLOCK]
        if u is None:
            dst[...] = a[i:i + COPY_BLOCK].T
        else:
            np.matmul(v, u[i:i + COPY_BLOCK].T, out=dst)
            dst += a[i:i + COPY_BLOCK].T
    if b is not None:
        qt[n] = b
    tau = np.empty(min(m, cols))
    _lapack_lite(lapack_lite.dgeqrf, m, cols, qt, max(1, m), tau)
    r = np.triu(qt[:n, :n].T)
    qtb = None if b is None else qt[n, :n].copy()
    # All of r, not just its diagonal: an entry above the diagonal stays
    # there when the columns to its left need no reflection.
    if not (np.isfinite(r).all() and (qtb is None or np.isfinite(qtb).all())):
        what = "a" if u is None else "a + u v.T"
        what = what if b is None else f"[{what} | b]"
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


def cholesky_qr(a, b=None) -> Optional[tuple]:
    """R and ``q.T @ b`` of a tall a by certified CholeskyQR2, or None.

    CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 44,
    2015) takes ``R1 = chol(a.T a)'``, then ``q1 = a R1^{-1}`` and
    ``R2 = chol(q1.T q1)'``, and returns ``r = R2 R1``: two Gram passes
    over a, all BLAS-3, and no m x n copy. The second pass walks row
    blocks of q1 through one buffer and carries b along, so
    ``q.T @ b = R2^{-T} (q1.T b)`` with no q. A block has 2n rows, within
    [512, ``GRAM_BLOCK``], so it holds about as much as two of the n x n
    arrays made here anyway. Each block costs an n x n sum besides its
    products, which makes much shorter blocks slower at large n.

    r is as orthogonal a factor as Householder's when
    ``delta = 8 kappa sqrt((m n + n (n + 1)) u) <= 1`` (the paper's
    sufficient condition, u = eps / 2). kappa here is the Hoelder bound
    ``sqrt(||R1||_1 ||R1^{-1}||_1 ||R1||_inf ||R1^{-1}||_inf)``, which is
    at least cond_2(R1). The Frobenius bound is looser still (20x at
    m = 20000, n = 1000) and would turn away well-conditioned a with n in
    the thousands.

    Returns a tuple ``(r, qtb)`` as ``householder_qr``'s fields of those
    names (qtb None without b), or None when it cannot vouch for the
    result: a Cholesky factorization fails, delta > 1 or is NaN, the Gram
    matrix is not finite or so small that underflow outweighs its
    roundoff, r or qtb is not finite, or r fails ``householder_qr``'s rank
    screen. It then emits no warning; a caller falls back to
    ``householder_qr``, which raises the matching error, if any.

    Raises DimensionMismatch as ``householder_qr`` does for a and b.
    """
    a = _as_2d(a, "a")
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"QR requires m >= n, got shape {a.shape}")
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (m,):
            raise DimensionMismatch(f"b must be a length-{m} vector, got shape {b.shape}")
    with np.errstate(all="ignore"):
        try:
            return _cholesky_qr2(a, b)
        except np.linalg.LinAlgError:
            return None


def _cholesky_qr2(a: np.ndarray, b: Optional[np.ndarray]) -> Optional[tuple]:
    """The body of ``cholesky_qr``, under its ``np.errstate``."""
    m, n = a.shape
    g = a.T @ a
    # Underflow in a.T a adds up to m n subnormal spacings to g, which the
    # certificate's roundoff model leaves out; below this scale it could
    # pass an R1 that misstates cond(a).
    if not (np.isfinite(g).all()
            and g.diagonal().max(initial=0.0) > 2.0 * m * n * SUBNORMAL / EPS):
        return None
    r1 = np.linalg.cholesky(g).T
    del g
    r1inv = invert_upper_triangular(r1)
    kappa = np.sqrt(np.linalg.norm(r1, 1) * np.linalg.norm(r1inv, 1)
                    * np.linalg.norm(r1, np.inf) * np.linalg.norm(r1inv, np.inf))
    if not 8.0 * kappa * np.sqrt((m * n + n * (n + 1)) * EPS / 2.0) <= 1.0:
        return None
    g2 = np.zeros((n, n))
    gram = np.empty((n, n))
    q1tb = np.zeros(n)
    rows = min(GRAM_BLOCK, max(512, 2 * n), m)
    block = np.empty((rows, n))
    for i in range(0, m, rows):
        q1 = block[:min(rows, m - i)]
        _times_upper(a[i:i + rows], r1inv, q1)
        np.matmul(q1.T, q1, out=gram)
        g2 += gram
        if b is not None:
            q1tb += b[i:i + rows] @ q1
    del r1inv, gram, block
    l2 = np.linalg.cholesky(g2)
    del g2
    r = np.zeros((n, n))
    _times_upper(l2.T, r1, r)
    qtb = None
    if b is not None:
        # R2' y = q1tb by back substitution on the row- and column-reversed
        # L2, which is upper triangular.
        qtb = solve_upper_triangular(np.ascontiguousarray(l2[::-1, ::-1]), q1tb[::-1])[::-1]
    if not (np.isfinite(r).all() and (qtb is None or np.isfinite(qtb).all())):
        return None
    diag = np.diag(r)
    if n > 0 and diag.min() <= m * EPS * diag.max():
        return None
    return r, qtb


def _times_upper(c: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Write ``c @ t`` into out for an upper-triangular t.

    One product per ``TRIANGULAR_PANEL`` columns of t, each over the rows
    of t down to the panel's diagonal block, so the products skip all of
    t's zero triangle but the panels' lower corners.
    """
    n = t.shape[0]
    for j in range(0, n, TRIANGULAR_PANEL):
        k = min(j + TRIANGULAR_PANEL, n)
        np.matmul(c[:, :k], t[:k, j:k], out=out[:, j:k])


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


def solve_upper_triangular(r, b) -> np.ndarray:
    """Solve ``r @ x = b`` for upper-triangular r by blocked back substitution.

    From the bottom block up, each diagonal block of at most
    ``TRIANGULAR_LEAF`` columns goes to ``np.linalg.solve`` (partial
    pivoting never swaps rows of a triangular matrix, so this is back
    substitution), and one product takes the block's part out of the rows
    above it. b may be a vector or a matrix of stacked right-hand-side
    columns; the result has the same ndim. Only the upper triangle of r is
    read.

    Raises SingularMatrix if r has a zero diagonal entry. Near-zero
    diagonals are the caller's concern (``householder_qr`` screens for them).
    """
    r = _as_2d(r, "r")
    n = r.shape[0]
    if r.shape[1] != n:
        raise DimensionMismatch(f"r must be square, got shape {r.shape}")
    x = np.array(b, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise DimensionMismatch(
            f"right-hand side of shape {x.shape} does not conform with r of shape {r.shape}"
        )
    if n > 0 and np.any(np.diag(r) == 0.0):
        raise SingularMatrix("triangular factor has a zero diagonal entry")
    for j in reversed(range(0, n, TRIANGULAR_LEAF)):
        k = min(j + TRIANGULAR_LEAF, n)
        x[j:k] = np.linalg.solve(np.triu(r[j:k, j:k]), x[j:k])
        x[:j] -= r[:j, j:k] @ x[j:k]
    return x


def invert_upper_triangular(r) -> np.ndarray:
    """Inverse of an upper-triangular r, by recursive 2 x 2 blocking.

    With ``r = [[R11, R12], [0, R22]]`` the inverse is
    ``[[X11, -(X11 @ R12) @ X22], [0, X22]]`` for ``Xii = Rii^{-1}``; the
    diagonal blocks recurse down to ``TRIANGULAR_LEAF`` columns, where
    ``np.linalg.inv`` takes over. About 2n^3 / 3 flops, all but the
    leaves in gemm, so it runs as fast as trtri's n^3 / 3; worth it when r
    is solved against many times.

    Only the upper triangle of r is read, as in ``solve_upper_triangular``.
    The result is upper triangular and C-contiguous, so that products
    ``c @ inv`` with a skinny row-major c run in BLAS's fast orientation.

    Raises SingularMatrix if r has a zero diagonal entry.
    """
    r = _as_2d(r, "r")
    n = r.shape[0]
    if r.shape[1] != n:
        raise DimensionMismatch(f"r must be square, got shape {r.shape}")
    zero = np.flatnonzero(np.diag(r) == 0.0)
    if zero.size:
        raise SingularMatrix(
            f"triangular factor has a zero diagonal entry at index {zero[0]}"
        )
    inv = np.zeros((n, n))
    _invert_upper(np.triu(r), inv)
    return inv


def _invert_upper(r: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the upper-triangular r into out, a zeroed
    array of r's shape; blocks below the diagonal are not written."""
    n = r.shape[0]
    if n <= TRIANGULAR_LEAF:
        # Partial pivoting never swaps rows of a triangular matrix, so
        # this is back substitution on the identity.
        out[...] = np.triu(np.linalg.inv(r))
        return
    k = n // 2
    _invert_upper(r[:k, :k], out[:k, :k])
    _invert_upper(r[k:, k:], out[k:, k:])
    t = out[:k, :k] @ r[:k, k:]
    t *= -1.0
    np.matmul(t, out[k:, k:], out=out[:k, k:])


def lu_factor_checked(c) -> float:
    """The exact 1-norm reciprocal condition number of a small square c.

    Returns ``rcond = 1 / cond_1(c)``, which numpy computes from an LU
    factorization of c with partial pivoting.

    Raises SingularCapacitance unless ``rcond > p * eps`` for the p x p
    system, a test that a NaN or infinite c fails too: the system cannot be
    solved reliably.
    """
    c = _as_2d(c, "c")
    p = c.shape[0]
    if c.shape[1] != p:
        raise DimensionMismatch(f"c must be square, got shape {c.shape}")
    if p == 0:
        raise DimensionMismatch("c must be nonempty")
    rcond = float(1.0 / np.linalg.cond(c, 1))
    if not rcond > p * EPS:
        raise SingularCapacitance(
            f"{p} x {p} system is singular or near-singular (rcond {rcond:.3e})"
        )
    return rcond
