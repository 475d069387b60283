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

``woodbury.prepare`` needs the inverse of an upper-triangular r with
``r.T r = a.T a``, whose diagonal is positive, and the least squares
solution for one b. ``cholesky_rinv`` gives rinv from one Gram pass over
a, with no m x n copy, and returns None when it cannot certify it: when
a is too ill-conditioned for a Cholesky r, or when its result is not
finite. ``prepare`` then solves for b by CSNE through rinv. Past the
certificate it runs ``householder_qr``, which takes a tall a and a
length-m b and returns the tuple ``(rinv, qtb)``, qtb ``q.T @ b``
without forming q, so ``x = rinv @ qtb`` is the least squares solution
for b. It always applies and raises from ``_screen``: r and qtb must be
finite and r must pass a rank test. It factors ``[a | b]``, optionally
with a rank-r term ``u @ v.T`` added to a, in one Fortran-ordered copy
that it frees before it inverts r. The from-scratch comparator
``baseline_solve`` stays on Householder alone: it needs no certificate,
and the measured speedups are quoted against it.

``qr_thin`` is ``np.linalg.qr`` behind the same screen: a reference that
forms q, independent of the two kernels above, kept with ``QRFactors`` only
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

# ``cholesky_rinv`` certifies its r when ``kappa^2 eps <= TAU``, kappa a
# bound on cond(r); fitted on graded bases, see its docstring.
TAU = 1e-4

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
    factors are reproducible across LAPACK builds. qtb is None only for
    ``qr_thin``, which has no b.
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


def householder_qr(a, b, u=None, v=None) -> tuple:
    """R^{-1} and ``q.T @ b`` of a tall a, or of ``a + u @ v.T``, by
    Householder QR.

    Copies a and b once into Fortran order, block by block, and runs
    LAPACK ``geqrf`` in place through ``numpy.linalg.lapack_lite``. None
    of a, b, u, v is modified. The copy is freed once r and qtb are read
    off it, before r is screened and inverted, so the inversion's n x n
    arrays never sit beside it.

    With a rank-r term (u, v) the factored matrix is ``a + u @ v.T``:
    each block of it is written straight into the Fortran-ordered buffer,
    ``v @ u[i:j].T`` by BLAS and then a's block added in place, so no
    m x n array but that buffer is made.

    This is Golub's Householder least squares method: the transformations
    that triangularize a also carry b, so the top n entries of the last
    column are ``q.T @ b``, and ``rinv @ qtb`` solves ``min ||a x - b||``
    with no q at all.

    Parameters
    ----------
    a : (m, n) array, m >= n
    b : (m,) array. A NaN or infinity in b shows in qtb only where a
        reflector carries it there, so a caller that cannot rule them out
        screens b itself.
    u, v : (m, r) and (n, r) arrays, optional, given together.

    Returns the tuple ``(rinv, qtb)``: rinv is the n x n inverse of r,
    upper triangular with a positive diagonal and C-contiguous (see
    ``invert_upper_triangular``); qtb is ``q.T @ b``, length n.

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
    # Row j of qt is column j of [a | b], so qt is [a | b] in Fortran order.
    # No view of it outlives the block that uses it, so ``del qt`` frees it.
    qt = np.empty((n + 1, m))
    # A finite update may overflow here; the screen below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, m, COPY_BLOCK):
            rows = slice(i, i + COPY_BLOCK)
            if u is None:
                qt[:n, rows] = a[rows].T
            else:
                np.add(np.matmul(v, u[rows].T, out=qt[:n, rows]), a[rows].T,
                       out=qt[:n, rows])
    qt[n] = b
    tau = np.empty(min(m, n + 1))
    _lapack_lite(lapack_lite.dgeqrf, m, n + 1, qt, max(1, m), tau)
    r = np.triu(qt[:n, :n].T)
    qtb = qt[n, :n].copy()
    del qt
    _screen(r, qtb, m, "a" if u is None else "a + u v.T")
    return invert_upper_triangular(r), qtb


def cholesky_rinv(a) -> Optional[np.ndarray]:
    """R^{-1} of a tall a by one Gram pass and a Cholesky factorization,
    or None.

    Forms ``g = a.T @ a`` (one syrk over a, no m x n copy), ``r =
    chol(g)'`` and ``rinv = invert_upper_triangular(r)``. The package
    applies r only through ``(a.T a)^{-1} = r^{-1} r^{-T}``, so an r with
    ``r.T r`` close to ``a.T a`` is all it needs; no q is formed, and none
    is made orthogonal. It returns no ``q.T @ b``: ``woodbury.prepare``
    takes the base solution by the corrected seminormal equations (CSNE;
    Björck 1987, LAA 88/89) through rinv. Beside a it holds at most
    about 3.25 n^2 doubles: g goes once r is formed, and the inversion
    holds r, a copy of its upper triangle, rinv and a quarter-size
    temporary.

    It certifies r when ``kappa^2 eps <= TAU``, with kappa the Hoelder
    bound ``sqrt(||r||_1 ||rinv||_1 ||r||_inf ||rinv||_inf)``, which is at
    least cond_2(r): 7 to 17 times cond(a) on graded 2000 x 100 a, 20 to
    44 times at 6000 x 300 and 65 to 129 times at 20000 x 1000. Björck's
    CSNE analysis assumes r from a backward-stable QR, and a Cholesky r
    falls outside it, so this envelope is measured, not proved: on graded
    2000 x 100 and 6000 x 300 a it certifies through cond(a) = 3e4 and
    1e4, and wherever it certifies, the CSNE solution stays within the
    least squares sensitivity bound (see
    ``test_fresh_rhs_within_sensitivity_bound``). No rank test is needed:
    a certified kappa is at most ``sqrt(TAU / eps)``, about 6.7e5, below
    the rank threshold ``1 / (m eps)`` of ``householder_qr`` for any
    m < 6e9.

    Returns the n x n upper-triangular, C-contiguous rinv, or None when
    it cannot vouch for it: ``a.T a`` is not finite or so small that
    underflow outweighs its roundoff, the Cholesky factorization fails,
    or ``kappa^2 eps > TAU``; a NaN or infinity in rinv makes kappa NaN
    or infinite and is declined with it. It then emits no warning; a
    caller falls back to ``householder_qr``, which raises the matching
    error, if any. It raises nothing of its own.
    """
    m, n = a.shape
    with np.errstate(all="ignore"):
        g = a.T @ a
        # Underflow in a.T a adds up to m n subnormal spacings to g, which
        # the certificate's roundoff model leaves out; below this scale it
        # could pass an r that misstates cond(a).
        if not (np.isfinite(g).all()
                and g.diagonal().max(initial=0.0) > 2.0 * m * n * SUBNORMAL / EPS):
            return None
        try:
            r = np.linalg.cholesky(g).T
            del g
            rinv = invert_upper_triangular(r)
        except np.linalg.LinAlgError:
            return None
        kappa2 = (np.linalg.norm(r, 1) * np.linalg.norm(rinv, 1)
                  * np.linalg.norm(r, np.inf) * np.linalg.norm(rinv, np.inf))
    if not kappa2 * EPS <= TAU:
        return None
    return rinv


def qr_thin(a) -> QRFactors:
    """Thin QR of a tall full-column-rank a: ``np.linalg.qr`` and the screen.

    A reference, independent of the two kernels above, for tests and the
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
    leaves in gemm, so it runs as fast as trtri's n^3 / 3. Both base
    kernels return the inverse in place of r, and the package applies r
    only through products with it.

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
