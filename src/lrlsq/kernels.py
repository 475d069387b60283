"""Dense real linear algebra kernels.

These kernels are internal to the package: ``lrlsq.woodbury`` checks
every input before a kernel sees it, so callers pass 2-D float64 arrays
(vectors 1-D) of conforming shapes, and the kernels check none of that
again; a call that breaks this raises numpy's own error. They screen only
their own results: ``_screen`` tests a QR's factor (finite, full rank)
and ``lu_factor_checked`` the capacitance's rcond. Everything runs on
LAPACK/BLAS through numpy, so one BLAS thread pool serves them. On-disk
exchange is column-major (see ``lrlsq.mio``); in-memory stride order is
whatever the underlying routine produces.

There are two base QRs with one contract: each takes a tall a and an
optional length-m b, and returns the tuple ``(rinv, qtb)``, the inverse of
the upper-triangular factor r, whose diagonal is positive, and qtb
``q.T @ b`` (None without b), without forming q. The package applies r
only through products with its inverse, so ``x = rinv @ qtb`` is the
least squares solution for b. ``cholesky_qr`` runs certified
CholeskyQR2: two Gram passes over a, in row blocks, with no m x n copy,
and one plain product ``R1^{-1} R2^{-1}`` for rinv.
It returns None when it cannot certify that its r is as good as a
Householder r, that is, when a is ill-conditioned for its size, or when
its result is not finite. ``householder_qr`` always applies and raises
from ``_screen``: r and qtb must be finite and r must pass a rank test.
It factors a, or ``[a | b]``, optionally with a rank-r term ``u @ v.T``
added to a, in one Fortran-ordered copy that it frees before it inverts
r. ``woodbury.prepare`` tries ``cholesky_qr`` first and falls back to
``householder_qr``. The from-scratch comparator ``baseline_solve`` stays
on Householder alone: it needs no certificate, and the measured speedups
are quoted against it.

``qr_thin`` is ``np.linalg.qr`` behind the same screen: a reference that
forms q, independent of the two QRs above, kept with ``QRFactors`` only
for tests and for the benchmark's ``kernels.qr_thin`` layer until that
layer is replaced.

Every function is pure: inputs are never modified, results are fresh
arrays, so they are safe to call concurrently on shared read-only data.
Results are deterministic for a fixed BLAS build and thread count.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import lapack_lite

from .errors import NonFiniteValue, RankDeficient, SingularCapacitance

EPS = float(np.finfo(np.float64).eps)
SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


# Rows of a per block of the transposed copy in ``householder_qr``; a
# 256 x n block of a and its n x 256 image stay in the caches together.
COPY_BLOCK = 256

# Columns of the largest diagonal block that ``invert_upper_triangular``
# hands to ``np.linalg.inv``.
TRIANGULAR_LEAF = 64

# Most rows of a per block of ``cholesky_qr``'s second pass (blocks have
# 2n rows, at least 512), and columns per panel of that pass: per product
# with R1^{-1} and per panel of its second Gram matrix.
GRAM_BLOCK = 2048
TRIANGULAR_PANEL = 256

# ``lu_factor_checked`` rejects a p x p system unless its rcond is at least
# ``p * eps * CAP_GUARD``. Genuine rank drop puts the rcond at roundoff
# level; mild ill-conditioning, which the solver tolerates, keeps it above.
CAP_GUARD = 1e3


class QRFactors(NamedTuple):
    """Thin QR factorization a = q @ r, as ``qr_thin`` returns it.

    q has orthonormal columns (m x n) and r is upper triangular (n x n) with
    a nonnegative diagonal. For the sizes this package targets, q satisfies
    ||q.T @ q - I||_F <= 1e-12 * n and ||q @ r - a||_F <= 1e-12 * ||a||_F.
    """

    q: np.ndarray
    r: np.ndarray


def _lapack_lite(routine, *args) -> None:
    """Run a ``numpy.linalg.lapack_lite`` routine with its optimal workspace.

    An illegal argument raises ValueError (numpy's xerbla); geqrf reports
    nothing else.
    """
    work = np.empty(1)
    routine(*args, work, -1, 0)
    work = np.empty(max(1, int(work[0])))
    routine(*args, work, work.size, 0)


def _screen(r: np.ndarray, qtb: Optional[np.ndarray], m: int, what: str = "a") -> np.ndarray:
    """Screen a QR's r and qtb, then give r a nonnegative diagonal in place.

    Raises NonFiniteValue unless r (all of it: an entry above the diagonal
    stays there when the columns to its left need no reflection) and qtb
    are finite, and RankDeficient when some
    ``|r[i, i]| <= m * eps * max_j |r[j, j]|``, the usual backward-stable
    threshold. what names the factored matrix in the messages. The rows of
    r and the entries of qtb are then multiplied by the returned signs, so
    factors are reproducible across LAPACK builds.
    """
    n = r.shape[0]
    if not (np.isfinite(r).all() and (qtb is None or np.isfinite(qtb).all())):
        what = what if qtb is None else f"[{what} | b]"
        raise NonFiniteValue(
            f"{what} of shape ({m}, {n + (qtb is not None)}) contains NaN or infinite entries"
        )
    diag = np.abs(np.diag(r))
    if n > 0 and diag.min() <= m * EPS * diag.max():
        raise RankDeficient(
            f"matrix of shape ({m}, {n}) is numerically rank-deficient "
            f"(min |R_ii| = {diag.min():.3e}, max = {diag.max():.3e})"
        )
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    r *= sign[:, None]
    if qtb is not None:
        qtb *= sign
    return sign


def householder_qr(a, b=None, u=None, v=None) -> tuple:
    """R^{-1} and ``q.T @ b`` of a tall a, or of ``a + u @ v.T``, by
    Householder QR.

    Copies a (and b) once into Fortran order, block by block, and runs
    LAPACK ``geqrf`` in place through ``numpy.linalg.lapack_lite``. None
    of a, b, u, v is modified. The copy is freed once r and qtb are read
    off it, before r is screened and inverted, so the inversion's n x n
    arrays never sit beside it.

    With a rank-r term (u, v) the factored matrix is ``a + u @ v.T``:
    each block of it is written straight into the Fortran-ordered buffer,
    ``v @ u[i:j].T`` by BLAS and then a's block added in place, so no
    m x n array but that buffer is made.

    With b, this is Golub's Householder least squares method: the
    transformations that triangularize a also carry b, so the top n
    entries of the last column are ``q.T @ b``, and ``rinv @ qtb`` solves
    ``min ||a x - b||`` with no q at all.

    Parameters
    ----------
    a : (m, n) array, m >= n
    b : (m,) array, optional. A NaN or infinity in b shows in qtb only
        where a reflector carries it there, so a caller that cannot rule
        them out screens b itself.
    u, v : (m, r) and (n, r) arrays, optional, given together.

    Returns the tuple ``(rinv, qtb)``: rinv is the n x n inverse of r,
    upper triangular with a positive diagonal and C-contiguous (see
    ``invert_upper_triangular``); qtb is None without b.

    Raises
    ------
    NonFiniteValue
        If r or qtb is not finite. Householder QR carries any NaN or
        infinity of a (or of u and v, or of an overflowing ``u @ v.T``)
        into r, so this tests the n x n factor instead of making a pass
        over a.
    RankDeficient
        If a is numerically rank-deficient: some
        ``|r[i, i]| <= m * eps * max_j |r[j, j]|``.
    """
    m, n = a.shape
    cols = n if b is None else n + 1
    # Row j of qt is column j of [a | b], so qt is [a | b] in Fortran order.
    # No view of it outlives the block that uses it, so ``del qt`` frees it.
    qt = np.empty((cols, m))
    # A finite update may overflow here; the screen below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, m, COPY_BLOCK):
            rows = slice(i, i + COPY_BLOCK)
            if u is None:
                qt[:n, rows] = a[rows].T
            else:
                np.add(np.matmul(v, u[rows].T, out=qt[:n, rows]), a[rows].T,
                       out=qt[:n, rows])
    if b is not None:
        qt[n] = b
    tau = np.empty(min(m, cols))
    _lapack_lite(lapack_lite.dgeqrf, m, cols, qt, max(1, m), tau)
    r = np.triu(qt[:n, :n].T)
    qtb = None if b is None else qt[n, :n].copy()
    del qt
    _screen(r, qtb, m, "a" if u is None else "a + u v.T")
    return invert_upper_triangular(r), qtb


def cholesky_qr(a, b=None) -> Optional[tuple]:
    """R^{-1} and ``q.T @ b`` of a tall a by certified CholeskyQR2, or None.

    CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 44,
    2015) takes ``R1 = chol(a.T a)'``, then ``q1 = a R1^{-1}`` and
    ``R2 = chol(q1.T q1)'``, so that ``r = R2 R1``: two Gram passes over
    a, all BLAS-3, and no m x n copy. The second pass walks row blocks of
    q1 through one buffer and carries b along, so
    ``q.T @ b = R2^{-T} (q1.T b)`` with no q. It sums the lower triangle
    of ``q1.T q1`` straight into G2, one ``TRIANGULAR_PANEL`` of rows at
    a time as soon as that panel of q1 is formed, so no n x n Gram
    temporary is made. A block has 2n rows, within [512, ``GRAM_BLOCK``],
    so it holds about as much as two n x n arrays. Each block costs
    n x n sums besides its products, which makes much shorter blocks
    slower at large n. r itself is never formed: ``R2^{-1}`` is the one
    inverse taken after the pass, and ``r^{-1} = R1^{-1} R2^{-1}`` and
    ``q.T @ b = (q1.T b) R2^{-1}`` (as a row) are products with it.

    Beside a and b it holds about four n x n arrays at most; the second
    pass holds ``R1^{-1}``, G2, the block and a panel of G2. R1 goes once
    kappa is certified, the block goes with the pass, and G2 before
    ``R2`` is inverted, when ``R1^{-1}``, L2 and ``q1.T b`` are all that
    is left. At m = 20000, n = 1000 the tracemalloc peak is 32.7 MiB,
    4.3 n^2 doubles.

    r is as orthogonal a factor as Householder's when
    ``delta = 8 kappa sqrt((m n + n (n + 1)) u) <= 1`` (the paper's
    sufficient condition, u = eps / 2). kappa here is the Hoelder bound
    ``sqrt(||R1||_1 ||R1^{-1}||_1 ||R1||_inf ||R1^{-1}||_inf)``, which is
    at least cond_2(R1). The Frobenius bound is looser still (20x at
    m = 20000, n = 1000) and would turn away well-conditioned a with n in
    the thousands. No rank test is needed: ``delta <= 1`` bounds cond(r)
    by about ``1 / (8 sqrt(m n u))``, which is below the rank threshold
    ``1 / (m eps)`` of ``householder_qr`` whenever ``m < 32 n / eps``.

    Returns the tuple ``(rinv, qtb)`` as ``householder_qr`` does, or None
    when it cannot vouch for the result: a Cholesky factorization fails,
    delta > 1 or is NaN, the Gram matrix is not finite or so small that
    underflow outweighs its roundoff, or rinv or qtb is not finite. It
    then emits no warning; a caller falls back to ``householder_qr``,
    which raises the matching error, if any. It raises nothing of its
    own.
    """
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
    # Pass 2 and everything after it need only R1^{-1}.
    del r1
    if not 8.0 * kappa * np.sqrt((m * n + n * (n + 1)) * EPS / 2.0) <= 1.0:
        return None
    g2, q1tb = _second_pass(a, b, r1inv)
    l2 = np.linalg.cholesky(g2)
    del g2
    r2inv = invert_upper_triangular(l2.T)
    del l2
    qtb = None if b is None else q1tb @ r2inv
    rinv = r1inv @ r2inv
    if not (np.isfinite(rinv).all() and (qtb is None or np.isfinite(qtb).all())):
        return None
    return rinv, qtb


def _second_pass(a: np.ndarray, b: Optional[np.ndarray], r1inv: np.ndarray) -> tuple:
    """CholeskyQR2's second pass: ``(G2, q1tb)`` for ``Q1 = a R1^{-1}``.

    G2 is ``Q1.T Q1`` with only its lower triangle summed, the one that
    ``np.linalg.cholesky`` reads, and q1tb is ``Q1.T b`` (zeros without b).
    Row blocks of Q1 are formed in one buffer, a ``TRIANGULAR_PANEL`` of
    columns at a time over the rows of R1^{-1} down to the panel's
    diagonal block, and each panel's rows of G2 are summed as soon as it
    is formed: the diagonal block by syrk, the block to its left by one
    product, both into one panel-sized buffer. The buffers go on return.
    """
    m, n = a.shape
    g2 = np.zeros((n, n))
    q1tb = np.zeros(n)
    rows = min(GRAM_BLOCK, max(512, 2 * n), m)
    block = np.empty((rows, n))
    part = np.empty((min(TRIANGULAR_PANEL, n), n))
    for i in range(0, m, rows):
        q1 = block[:min(rows, m - i)]
        for j in range(0, n, TRIANGULAR_PANEL):
            k = min(j + TRIANGULAR_PANEL, n)
            panel = q1[:, j:k]
            np.matmul(a[i:i + rows, :k], r1inv[:k, j:k], out=panel)
            np.matmul(panel.T, panel, out=part[:k - j, j:k])
            np.matmul(panel.T, q1[:, :j], out=part[:k - j, :j])
            g2[j:k, :k] += part[:k - j, :k]
        if b is not None:
            q1tb += b[i:i + rows] @ q1
    return g2, q1tb


def qr_thin(a) -> QRFactors:
    """Thin QR of a tall full-column-rank a: ``np.linalg.qr`` and the screen.

    A reference, independent of the two QRs above, for tests and the
    benchmark's ``kernels.qr_thin`` layer. r and q take the signs that
    give r a nonnegative diagonal; a is not modified. Raises from the
    screen as ``householder_qr`` does: NonFiniteValue or RankDeficient.
    """
    q, r = np.linalg.qr(a)
    q *= _screen(r, None, a.shape[0])
    return QRFactors(q=q, r=r)


def invert_upper_triangular(r) -> np.ndarray:
    """Inverse of an upper-triangular r, by recursive 2 x 2 blocking.

    With ``r = [[R11, R12], [0, R22]]`` the inverse is
    ``[[X11, -(X11 @ R12) @ X22], [0, X22]]`` for ``Xii = Rii^{-1}``; the
    diagonal blocks recurse down to ``TRIANGULAR_LEAF`` columns, where
    ``np.linalg.inv`` takes over. About 2n^3 / 3 flops, all but the
    leaves in gemm, so it runs as fast as trtri's n^3 / 3. The base QRs
    return the inverse in place of r, and the package applies r only
    through products with it.

    Only the upper triangle of r is read.
    The result is upper triangular and C-contiguous, so that products
    ``c @ inv`` with a skinny row-major c run in BLAS's fast orientation.

    Raises nothing of its own: r is a factor that passed a QR's screen,
    or a Cholesky factor. A zero diagonal entry makes ``np.linalg.inv``
    raise LinAlgError.
    """
    n = r.shape[0]
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
    """The exact 1-norm reciprocal condition number of a nonempty square c.

    Returns ``rcond = 1 / cond_1(c)``, which numpy computes from an LU
    factorization of c with partial pivoting.

    Raises SingularCapacitance unless ``rcond >= p * eps * CAP_GUARD`` for
    the p x p system, a test that a NaN or infinite c fails too: c is the
    capacitance of an update, and the updated matrix appears
    rank-deficient.
    """
    p = c.shape[0]
    rcond = float(1.0 / np.linalg.cond(c, 1))
    threshold = p * EPS * CAP_GUARD
    if not rcond >= threshold:
        raise SingularCapacitance(
            f"updated matrix appears rank-deficient: {p} x {p} capacitance "
            f"rcond {rcond:.3e} is below {threshold:.3e}"
        )
    return rcond
