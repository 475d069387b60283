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
length-m b and returns the tuple ``(rinv, x)``, x the least squares
solution for b, ``rinv @ (q.T @ b)`` with no q formed. It always applies
and raises from ``_screen``: r and ``q.T @ b`` must be finite and r must
pass a rank test. It factors ``[a | b]``, optionally with a rank-r term
``u @ v.T`` added to a, in one Fortran-ordered copy that it frees before
it inverts r in place. The from-scratch comparator ``baseline_solve``
stays on Householder alone: it needs no certificate, and the measured
speedups are quoted against it.

``qr_thin`` is ``np.linalg.qr`` and nothing else: the package does not
call it, and it stays only because the benchmark's ``kernels.qr_thin``
layer times it. The tests take their reference q and r from
``tests/oracles.py``.

Every public function is pure: inputs are never modified, results are
fresh arrays, so they are safe to call concurrently on shared read-only
data. The private helpers ``_lapack_lite``, ``_screen``,
``_cholesky_upper``, ``_solve_transposed_upper`` and ``_invert_upper``
write in place, but only into arrays that the kernel calling them has
just made: ``householder_qr`` inverts its r, and ``cholesky_rinv`` its
Gram matrix, by ``_invert_upper`` with no copy.
Results are deterministic for a fixed BLAS build and thread count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.linalg import lapack_lite

from .errors import NonFiniteValue, RankDeficient, SingularCapacitance

EPS = float(np.finfo(np.float64).eps)
SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


# Rows of a per block of the transposed copy in ``householder_qr``; a
# 256 x n block of a and its n x 256 image stay in the caches together.
COPY_BLOCK = 256

# Columns of the largest diagonal block that the recursive Cholesky
# factorization and triangular inversion hand to ``np.linalg.cholesky``
# and ``np.linalg.inv``.
TRIANGULAR_LEAF = 64

# Rows per block of ``_norm_product``'s absolute values.
NORM_ROWS = 32

# ``cholesky_rinv`` certifies its r when ``kappa^2 eps <= TAU``, kappa a
# bound on cond(r); fitted on graded bases, see its docstring.
TAU = 1e-4

# ``lu_factor_checked`` rejects a p x p system unless its rcond is at least
# ``p * eps * CAP_GUARD``. Genuine rank drop puts the rcond at roundoff
# level; mild ill-conditioning, which the solver tolerates, keeps it above.
CAP_GUARD = 1e3


def _lapack_lite(routine, *args) -> None:
    """Run a ``numpy.linalg.lapack_lite`` routine with its optimal workspace.

    An illegal argument raises ValueError (numpy's xerbla); geqrf reports
    nothing else.
    """
    work = np.empty(1)
    routine(*args, work, -1, 0)
    work = np.empty(max(1, int(work[0])))
    routine(*args, work, work.size, 0)


def _screen(r: np.ndarray, qtb: np.ndarray, m: int, what: str) -> None:
    """Screen a QR's r and qtb, then give r a nonnegative diagonal in place.

    Raises NonFiniteValue unless r (all of it: an entry above the diagonal
    stays there when the columns to its left need no reflection) and qtb
    are finite, and RankDeficient when some
    ``|r[i, i]| <= m * eps * max_j |r[j, j]|``, the usual backward-stable
    threshold. what names the factored matrix in the messages. The rows of
    r and the entries of qtb are then multiplied by the signs of r's
    diagonal, so factors are reproducible across LAPACK builds.
    """
    n = r.shape[0]
    if not (np.isfinite(r).all() and np.isfinite(qtb).all()):
        raise NonFiniteValue(
            f"[{what} | b] of shape ({m}, {n + 1}) contains NaN or infinite entries"
        )
    diag = np.abs(np.diag(r))
    if n > 0 and diag.min() <= m * EPS * diag.max():
        raise RankDeficient(
            f"{what} of shape ({m}, {n}) is numerically rank-deficient "
            f"(min |R_ii| = {diag.min():.3e}, max = {diag.max():.3e})"
        )
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    r *= sign[:, None]
    qtb *= sign


def householder_qr(a, b, u=None, v=None) -> tuple:
    """R^{-1} and the least squares solution for b of a tall a, or of
    ``a + u @ v.T``, by Householder QR.

    Copies a and b once into Fortran order, block by block, and runs
    LAPACK ``geqrf`` in place through ``numpy.linalg.lapack_lite``. None
    of a, b, u, v is modified. The copy is freed once r and qtb are read
    off it, before r is screened and then inverted in place
    (``_invert_upper``): the inversion holds r and one quarter-size
    product, about 1.25 n^2 doubles at large n, and never sits beside the
    copy.

    With a rank-r term (u, v) the factored matrix is ``a + u @ v.T``:
    each block of it is written straight into the Fortran-ordered buffer,
    ``v @ u[i:j].T`` by BLAS and then a's block added in place, so no
    m x n array but that buffer is made.

    This is Golub's Householder least squares method: the transformations
    that triangularize a also carry b, so the top n entries of the last
    column are ``qtb = q.T @ b``, and ``x = rinv @ qtb`` solves
    ``min ||a x - b||`` with no q at all.

    Parameters
    ----------
    a : (m, n) array, m >= n
    b : (m,) array. A NaN or infinity in b shows in qtb only where a
        reflector carries it there, so a caller that cannot rule them out
        screens b itself.
    u, v : (m, r) and (n, r) arrays, optional, given together.

    Returns the tuple ``(rinv, x)``: rinv is the n x n inverse of r,
    upper triangular with a positive diagonal and C-contiguous, so that
    products ``c @ rinv`` with a skinny row-major c run in BLAS's fast
    orientation; x is ``rinv @ qtb``, length n.

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
    _invert_upper(r, r)  # np.triu made r C-ordered
    return r, r @ qtb


def cholesky_rinv(a) -> Optional[np.ndarray]:
    """R^{-1} of a tall a by one Gram pass and a Cholesky factorization,
    or None.

    Forms ``g = a.T @ a`` (one syrk over a, no m x n copy), overwrites g
    with ``r = chol(g)'`` (``_cholesky_upper``) and then r with rinv
    (``_invert_upper``), and returns g. The package applies r only
    through ``(a.T a)^{-1} = r^{-1} r^{-T}``, so an r with ``r.T r`` close
    to ``a.T a`` is all it needs; no q is formed, and none is made
    orthogonal. It returns no ``q.T @ b``: ``woodbury.prepare`` takes the
    base solution by the corrected seminormal equations (CSNE; Björck
    1987, LAA 88/89) through rinv. After the Gram product g is its one
    n x n array: beside a it holds g and at most one quarter-size block
    of the recursion at a time (the Cholesky's trailing update or the
    inversion's product), about 1.25 n^2 doubles at large n. LAPACK sees
    only blocks of at most ``TRIANGULAR_LEAF`` rows, so the working
    copies it makes, which tracemalloc does not see, stay that small.

    It certifies r when ``kappa^2 eps <= TAU``, with kappa the Hoelder
    bound ``sqrt(||r||_1 ||rinv||_1 ||r||_inf ||rinv||_inf)``, the norms of
    r taken before the inversion and those of rinv after it, over row
    blocks (``_norm_product``). kappa is at least cond_2(r): 7 to 17
    times cond(a) on graded 2000 x 100 a, 20 to 44 times at 6000 x 300
    and 65 to 129 times at 20000 x 1000. Björck's
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
            _cholesky_upper(g)
            kappa2 = _norm_product(g)
            _invert_upper(g, g)
        except np.linalg.LinAlgError:
            return None
        kappa2 *= _norm_product(g)
    if not kappa2 * EPS <= TAU:
        return None
    return g


def _cholesky_upper(g: np.ndarray) -> None:
    """Overwrite a symmetric positive definite g with the upper-triangular
    r of ``r.T r = g``, zeros below the diagonal, by recursive 2 x 2
    blocking.

    With ``g = [[G11, G12], [G12.T, G22]]``: ``R11 = chol(G11)'``,
    ``R12`` solves ``R11.T R12 = G12`` in place over G12
    (``_solve_transposed_upper``, forward substitution, not a product
    with an inverse), and ``R22 = chol(G22 - R12.T R12)'``. The diagonal
    blocks recurse down to ``TRIANGULAR_LEAF`` columns, where
    ``np.linalg.cholesky`` takes over, so a g that small is factored
    exactly as that call factors it. Beside g, each level holds the
    solve's product, an eighth of its size, and then the trailing update,
    a quarter. Raises LinAlgError where ``np.linalg.cholesky`` finds a
    block not positive definite.
    """
    n = g.shape[0]
    if n <= TRIANGULAR_LEAF:
        g[...] = np.linalg.cholesky(g).T
        return
    k = n // 2
    _cholesky_upper(g[:k, :k])
    _solve_transposed_upper(g[:k, :k], g[:k, k:])
    r12 = g[:k, k:]
    g[k:, k:] -= r12.T @ r12
    g[k:, :k] = 0.0
    _cholesky_upper(g[k:, k:])


def _solve_transposed_upper(r: np.ndarray, x: np.ndarray) -> None:
    """Overwrite x with the solution y of ``r.T y = x``, r upper triangular
    with zeros below its diagonal, by recursive 2 x 2 blocking.

    With ``r = [[R11, R12], [0, R22]]`` this is forward substitution by
    blocks: the top rows of x are solved by R11, ``R12.T`` times them is
    taken off the bottom rows, and those are solved by R22. Blocks of at
    most ``TRIANGULAR_LEAF`` rows go to ``np.linalg.solve``, so an r that
    small is solved exactly as that call solves it. Beside x it holds the
    product for the bottom rows, about half of x.
    """
    n = r.shape[0]
    if n <= TRIANGULAR_LEAF:
        x[...] = np.linalg.solve(r.T, x)
        return
    k = n // 2
    _solve_transposed_upper(r[:k, :k], x[:k])
    x[k:] -= r[:k, k:].T @ x[:k]
    _solve_transposed_upper(r[k:, k:], x[k:])


def _norm_product(t: np.ndarray) -> float:
    """``||t||_1 ||t||_inf`` of a square t, summed over blocks of
    ``NORM_ROWS`` rows so that no temporary of t's size is made; NaN when
    t holds a NaN."""
    cols = np.zeros(t.shape[1])
    rows = np.empty(t.shape[0])
    for i in range(0, t.shape[0], NORM_ROWS):
        block = np.abs(t[i:i + NORM_ROWS])
        cols += block.sum(axis=0)
        rows[i:i + NORM_ROWS] = block.sum(axis=1)
    return float(cols.max() * rows.max())


def qr_thin(a) -> tuple:
    """``np.linalg.qr(a)``, unscreened: the call that the benchmark's
    ``kernels.qr_thin`` layer times. The package does not call it."""
    return np.linalg.qr(a)


def _invert_upper(r: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the upper triangle of r into out, zeros below
    its diagonal, by recursive 2 x 2 blocking; out is an array of r's
    shape, or r itself.

    With ``r = [[R11, R12], [0, R22]]`` the inverse is
    ``[[X11, -(X11 @ R12) @ X22], [0, X22]]`` for ``Xii = Rii^{-1}``; the
    diagonal blocks recurse down to ``TRIANGULAR_LEAF`` columns, where
    ``np.linalg.inv`` takes over. About 2n^3 / 3 flops, all but the
    leaves in gemm, so it runs as fast as trtri's n^3 / 3. Each block of
    out is written only after the blocks of r that it replaces have been
    read, so the inversion runs in place when out is r, beside one
    quarter-size product. r is a factor that passed a QR's screen or a
    Cholesky factorization; a zero diagonal entry makes
    ``np.linalg.inv`` raise LinAlgError.
    """
    n = r.shape[0]
    if n <= TRIANGULAR_LEAF:
        # Partial pivoting never swaps rows of a triangular matrix, so
        # this is back substitution on the identity.
        out[...] = np.triu(np.linalg.inv(np.triu(r)))
        return
    k = n // 2
    _invert_upper(r[:k, :k], out[:k, :k])
    _invert_upper(r[k:, k:], out[k:, k:])
    t = out[:k, :k] @ r[:k, k:]
    t *= -1.0
    np.matmul(t, out[k:, k:], out=out[:k, k:])
    out[k:, :k] = 0.0


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
