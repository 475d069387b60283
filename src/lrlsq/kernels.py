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
optional length-m b, and returns the tuple ``(r, qtb)``, r upper
triangular with a nonnegative diagonal and qtb ``q.T @ b`` (None without
b), without forming q. One screen serves both: r and qtb must be finite
and r must pass a rank test. ``cholesky_qr`` runs certified CholeskyQR2:
two Gram passes over a, in row blocks, with no m x n copy. It returns None
when it cannot certify that its r is as good as a Householder r, that is,
when a is ill-conditioned for its size, or when its r fails the screen.
``householder_qr`` always applies and raises from the screen. It factors
a, or ``[a | b]``, optionally with a rank-r term ``u @ v.T`` added to a,
in one Fortran-ordered copy that it frees on return.
``woodbury.prepare`` tries ``cholesky_qr`` first and falls back to
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

# Columns of the largest diagonal block that ``solve_upper_triangular`` and
# ``invert_upper_triangular`` hand to ``np.linalg.solve`` or ``np.linalg.inv``.
TRIANGULAR_LEAF = 64

# Most rows of a per block of ``cholesky_qr``'s second pass (blocks have
# 2n rows, at least 512), and columns per product in its triangular
# products and per panel of its second Gram matrix.
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
    """R and ``q.T @ b`` of a tall a, or of ``a + u @ v.T``, by Householder QR.

    Copies a (and b) once into Fortran order, block by block, and runs
    LAPACK ``geqrf`` in place through ``numpy.linalg.lapack_lite``. None
    of a, b, u, v is modified, and the copy is freed on return.

    With a rank-r term (u, v) the factored matrix is ``a + u @ v.T``:
    each block of it is written straight into the Fortran-ordered buffer,
    ``v @ u[i:j].T`` by BLAS and then a's block added in place, so no
    m x n array but that buffer is made.

    With b, this is Golub's Householder least squares method: the
    transformations that triangularize a also carry b, so the top n
    entries of the last column are ``q.T @ b``, and ``r x = qtb`` solves
    ``min ||a x - b||`` with no q at all.

    Parameters
    ----------
    a : (m, n) array, m >= n
    b : (m,) array, optional. A NaN or infinity in b shows in qtb only
        where a reflector carries it there, so a caller that cannot rule
        them out screens b itself.
    u, v : (m, r) and (n, r) arrays, optional, given together.

    Returns the tuple ``(r, qtb)``: r is n x n upper triangular with a
    nonnegative diagonal, qtb is None without b.

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
    qt = np.empty((cols, m))
    # A finite update may overflow here; the screen below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
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
    _screen(r, qtb, m, "a" if u is None else "a + u v.T")
    return r, qtb


def cholesky_qr(a, b=None) -> Optional[tuple]:
    """R and ``q.T @ b`` of a tall a by certified CholeskyQR2, or None.

    CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 44,
    2015) takes ``R1 = chol(a.T a)'``, then ``q1 = a R1^{-1}`` and
    ``R2 = chol(q1.T q1)'``, and returns ``r = R2 R1``: two Gram passes
    over a, all BLAS-3, and no m x n copy. The second pass walks row
    blocks of q1 through one buffer and carries b along, so
    ``q.T @ b = R2^{-T} (q1.T b)`` with no q. It sums the lower triangle
    of ``q1.T q1`` straight into G2, one ``TRIANGULAR_PANEL`` of rows at
    a time as soon as that panel of q1 is formed, so no n x n Gram
    temporary is made. A block has 2n rows, within [512, ``GRAM_BLOCK``],
    so it holds about as much as two n x n arrays. Each block costs
    n x n sums besides its products, which makes much shorter blocks
    slower at large n.

    Beside a and b it holds about four n x n arrays at most; the second
    pass holds ``R1^{-1}``, G2, the block and a panel of G2. R1 goes once
    kappa is certified and is rebuilt from ``R1^{-1}`` after the second
    pass, the block goes before the second Cholesky factorization, and
    ``q.T @ b`` is solved for before r is formed. At m = 20000, n = 1000
    the tracemalloc peak is 32.7 MiB, 4.3 n^2 doubles.

    r is as orthogonal a factor as Householder's when
    ``delta = 8 kappa sqrt((m n + n (n + 1)) u) <= 1`` (the paper's
    sufficient condition, u = eps / 2). kappa here is the Hoelder bound
    ``sqrt(||R1||_1 ||R1^{-1}||_1 ||R1||_inf ||R1^{-1}||_inf)``, which is
    at least cond_2(R1). The Frobenius bound is looser still (20x at
    m = 20000, n = 1000) and would turn away well-conditioned a with n in
    the thousands.

    Returns the tuple ``(r, qtb)`` as ``householder_qr`` does, or None
    when it cannot vouch for the result: a Cholesky factorization fails,
    delta > 1 or is NaN, the Gram matrix is not finite or so small that
    underflow outweighs its roundoff, or r and qtb fail the screen that
    ``householder_qr`` raises from. It then emits no warning; a caller
    falls back to ``householder_qr``, which raises the matching error, if
    any. It raises nothing of its own.
    """
    with np.errstate(all="ignore"):
        try:
            return _cholesky_qr2(a, b)
        except (np.linalg.LinAlgError, NonFiniteValue, RankDeficient):
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
    # Pass 2 needs only R1^{-1}; R1 is rebuilt from it afterwards.
    del r1
    if not 8.0 * kappa * np.sqrt((m * n + n * (n + 1)) * EPS / 2.0) <= 1.0:
        return None
    g2, q1tb = _second_pass(a, b, r1inv)
    l2 = np.linalg.cholesky(g2)
    del g2
    qtb = None
    if b is not None:
        # R2' y = q1tb by back substitution on the row- and column-reversed
        # L2, which is upper triangular.
        qtb = solve_upper_triangular(np.ascontiguousarray(l2[::-1, ::-1]), q1tb[::-1])[::-1]
    r1 = invert_upper_triangular(r1inv)
    del r1inv
    r = np.zeros((n, n))
    _times_upper(l2.T, r1, r)
    _screen(r, qtb, m)
    return r, qtb


def _second_pass(a: np.ndarray, b: Optional[np.ndarray], r1inv: np.ndarray) -> tuple:
    """CholeskyQR2's second pass: ``(G2, q1tb)`` for ``Q1 = a R1^{-1}``.

    G2 is ``Q1.T Q1`` with only its lower triangle summed, the one that
    ``np.linalg.cholesky`` reads, and q1tb is ``Q1.T b`` (zeros without b).
    Row blocks of Q1 are formed in one buffer, a ``TRIANGULAR_PANEL`` of
    columns at a time as in ``_times_upper``, and each panel's rows of G2
    are summed as soon as it is formed: the diagonal block by syrk, the
    block to its left by one product, both into one panel-sized buffer.
    The buffers go on return.
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


def solve_upper_triangular(r, b) -> np.ndarray:
    """Solve ``r @ x = b`` for upper-triangular r by blocked back substitution.

    From the bottom block up, each diagonal block of at most
    ``TRIANGULAR_LEAF`` columns goes to ``np.linalg.solve`` (partial
    pivoting never swaps rows of a triangular matrix, so this is back
    substitution), and one product takes the block's part out of the rows
    above it. b may be a vector or a matrix of stacked right-hand-side
    columns; the result has the same ndim. Only the upper triangle of r is
    read.

    Raises nothing of its own: r is a factor that passed a QR's screen,
    so its diagonal is far from zero. A zero diagonal entry makes
    ``np.linalg.solve`` raise LinAlgError.
    """
    n = r.shape[0]
    x = np.array(b, dtype=np.float64)
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
