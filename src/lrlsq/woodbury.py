"""Least squares solves for low-rank-updated matrices.

Given a tall matrix ``a`` (m x n, full column rank) that has been
prepared once, the minimizer of ``||b - (a + u @ v.T) x||`` can be
recovered from a handful of products with ``a`` plus one small 2r x 2r
linear system, instead of refactoring the modified matrix from scratch.
The arithmetic cost drops from O(m n^2) to O((r + k) m n) for k
right-hand sides, roughly an n/r-fold saving when r << n.

The machinery: with ``x_blk = [v, a.T @ u]`` (n x 2r) and
``yt = [u.T @ a + (u.T @ u) @ v.T; v.T]`` (2r x n), the updated normal
matrix is ``a.T a + x_blk @ yt``, so its inverse is a rank-2r correction of
``(a.T a)^{-1}`` controlled by the capacitance matrix ``I + yt @ z`` where
``z`` solves ``(a.T a) z = x_blk``. Singularity of that capacitance is
equivalent to the updated matrix losing full column rank, which is how the
solver detects and rejects rank-dropping updates. The n x n correction is
never materialized; ``prepare``/``build_workspace``/``solve_updated`` carry
only z (n x 2r), yt (2r x n) and the 2r x 2r capacitance.

``prepare`` gets R^{-1}, for an R with ``R.T R = a.T a``, without forming
Q. It first tries one Gram pass over ``a`` and a Cholesky factorization
(``kernels.cholesky_rinv``), with no copy of ``a``, and solves for the
bound b by the corrected seminormal equations (CSNE; Björck 1987, LAA
88/89) through that R^{-1}. Past its certificate, on an ``a`` that is
ill-conditioned for a Cholesky R, it factors ``[a | b]`` by Householder
QR in one (n + 1) x m buffer and reads ``Q.T b`` off it. Either way
``prepare`` keeps only R^{-1}, so a prepared base holds n^2 + n doubles
beyond ``a`` and the bound b. Any other right-hand side is solved by the
same CSNE body, from ``a`` and R^{-1} alone. One solve body serves a
vector b and an m x k block, so the k columns of a block share every
pass over ``a``.

``z`` then costs two n x n by n x 2r products instead of two triangular
solves. Skinny products are written with the skinny operand on the left,
``u.T @ a`` rather than ``a.T @ u`` and ``(c.T @ a).T`` rather than
``a.T @ c``, which is the faster layout for C-ordered ``a``: 2x-3x in
OpenBLAS (see the README's performance note).

``prepare``, ``LowRankUpdate``, ``ata_solve`` and the solvers take their
arrays as float64 and raise TypeError for a complex one rather than drop
its imaginary part.

The solves compute no certificate of their own: a caller that wants one
runs ``updated_normal_residual``, the normal-equations residual of any x
for ``a + u v.T``, at the price of two passes over ``a``.

Every record here is immutable after construction, with no lazily built
state, and the solve path is pure: one PreparedBase may serve many
workspaces, and one workspace many right-hand sides, concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NonFiniteValue


@dataclass(frozen=True)
class PreparedBase:
    """Reusable solver state for one base matrix, built by :func:`prepare`.

    a    : the m x n base matrix.
    rinv : n x n inverse of an upper-triangular R with a positive
           diagonal and ``R.T R = a.T a``: the Cholesky factor of
           ``a.T a`` when certified, else Householder QR's R; read-only.
    b, x0: the bound right-hand side and its base least squares solution;
           read-only copies.

    Plain arrays, none of them written after construction, so one base is
    safe to share across updates and threads.
    """

    a: np.ndarray
    rinv: np.ndarray
    b: np.ndarray
    x0: np.ndarray


@dataclass(frozen=True)
class LowRankUpdate:
    """A rank-r modification ``u @ v.T`` of an m x n base matrix.

    u is m x r and v is n x r with 1 <= r <= n <= m.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = _real(self.u, "u")
        v = _real(self.v, "v")
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
    cap   : the 2r x 2r capacitance ``I + yt @ z``; read-only.
    cap_rcond : its 1-norm reciprocal condition number.
    """

    x_blk: np.ndarray
    yt: np.ndarray
    z: np.ndarray
    cap: np.ndarray
    cap_rcond: float
    rank: int


@dataclass(frozen=True)
class SolveOutcome:
    """Solution of one updated least squares problem.

    cap_rcond is the workspace's capacitance condition diagnostic, in
    (0, 1]. :func:`updated_normal_residual` certifies x.
    """

    x: np.ndarray
    cap_rcond: float


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _real(x, name: str) -> np.ndarray:
    """x as a float64 array; raises TypeError when x is complex, whose
    imaginary part the conversion would drop."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError(f"{name} must be real, got dtype {x.dtype}")
    return np.asarray(x, dtype=np.float64)


def _operand(x, name: str, rows: int, ndims: tuple) -> np.ndarray:
    """x as a float64 array (see :func:`_real`) whose ndim is in ndims (1
    for a vector, 2 for a matrix) and whose first axis has length rows; a
    matrix must have at least one column. Raises DimensionMismatch naming
    the allowed shapes otherwise."""
    x = _real(x, name)
    if x.ndim not in ndims or x.shape[0] != rows or (x.ndim == 2 and x.shape[1] < 1):
        allowed = {1: f"a length-{rows} vector", 2: f"an ({rows}, k) matrix"}
        raise DimensionMismatch(
            f"{name} must be {' or '.join(allowed[d] for d in ndims)}, got shape {x.shape}"
        )
    return x


def _require_finite(x: np.ndarray, name: str) -> None:
    """Raise NonFiniteValue if x holds NaN or infinity.

    The test makes a bool temporary the size of x. On the largest x, the
    base a on ``prepare``'s Householder fallback, the (n + 1) x m buffer
    that the QR allocates next is 8x larger, so the temporary does not set
    the peak.
    """
    if not np.isfinite(x).all():
        raise NonFiniteValue(f"{name} contains NaN or infinite entries")


def _base_matrix(a) -> np.ndarray:
    """Check the shape of a base matrix: 2-D, m >= n >= 1."""
    a = _real(a, "a")
    if a.ndim != 2 or not a.shape[0] >= a.shape[1] >= 1:
        raise DimensionMismatch(f"a must be an (m, n) matrix, m >= n >= 1, got shape {a.shape}")
    return a


def _conforming(upd: LowRankUpdate, m: int, n: int) -> None:
    """Raise DimensionMismatch unless upd updates an m x n matrix."""
    if upd.u.shape[0] != m or upd.v.shape[0] != n:
        raise DimensionMismatch(
            f"update of shapes u={upd.u.shape}, v={upd.v.shape} does not "
            f"conform with base of shape ({m}, {n})"
        )


def updated_normal_residual(a, u, v, x, b) -> float:
    """``||ahat.T (ahat x - b)||_2`` without forming ``ahat = a + u v.T``."""
    # An infinity in x or b turns into NaN in these products, which is
    # passed on below without a warning.
    with np.errstate(invalid="ignore"):
        rr = a @ x + u @ (v.T @ x) - b
        g = a.T @ rr + v @ (u.T @ rr)
    # Scaled by its largest entry, so no square overflows or underflows.
    scale = float(np.abs(g).max(initial=0.0))
    if not 0.0 < scale < np.inf:
        return scale  # zero, or a NaN or infinity passed on
    return scale * float(np.linalg.norm(g / scale))


def prepare(a, b) -> PreparedBase:
    """Factor the base matrix once, for reuse across many updates.

    Gets R^{-1}, for an R with ``R.T R = a.T a``, without forming Q, and
    without copying ``a`` when it can. ``kernels.cholesky_rinv`` makes one
    Gram pass over ``a`` and overwrites the Gram matrix with R and then
    R^{-1}, so it holds about 1.25 n^2 doubles beside ``a``. The
    base solution x0 for b is then CSNE through that R^{-1} (the body of
    :func:`base_lstsq`): three more passes over ``a``. When it cannot
    certify its R, because cond(a) is too large for a Cholesky R,
    ``[a | b]`` is factored by Householder QR in one (n + 1) x m buffer
    instead, at the cost of the Gram pass already made, and
    ``kernels.householder_qr`` returns R^{-1} and
    ``x0 = R^{-1} (Q.T b)``, with ``Q.T b`` read off the factorization.
    That buffer is dropped before R is inverted in place. Each path
    inverts its R once, about 2 n^3 / 3 flops, so a declined a pays for
    two inversions; only the inverse is kept.
    ``(a.T a)^{-1} c = R^{-1} (R^{-T} c)`` is then two matrix products
    with it (:func:`ata_solve`).

    x0 is bound to b. A different right-hand side later costs three
    passes over ``a`` (:func:`base_lstsq`). A caller with no preferred
    right-hand side passes any one of its vectors.

    Raises DimensionMismatch unless a is 2-D with m >= n >= 1 and b is a
    length-m vector; NonFiniteValue when a or b holds NaN or infinity;
    and RankDeficient when a lacks full column rank.
    """
    a = _base_matrix(a)
    b = _operand(b, "b", a.shape[0], (1,))
    _require_finite(b, "b")
    rinv = kernels.cholesky_rinv(a)
    if rinv is not None:
        x0 = _csne(a, rinv, b)
    else:
        # cholesky_rinv declines on any NaN or infinity in a, which makes
        # the matching diagonal entry of a.T a non-finite; only this path
        # needs the pass over a that names it.
        _require_finite(a, "a")
        rinv, x0 = kernels.householder_qr(a, b)
    return PreparedBase(a=a, rinv=_freeze(rinv), b=_freeze(b.copy()), x0=_freeze(x0))


def ata_solve(base: PreparedBase, c) -> np.ndarray:
    """Solve ``(a.T a) z = c`` by two products with the prepared R^{-1}.

    c is a length-n vector or an n x k block of stacked columns, k >= 1;
    any other shape raises DimensionMismatch. The result z satisfies
    ``||a.T a z - c||_F <= ~1e-10 ||a.T a||_F ||z||_F`` on well-conditioned
    instances (instance-dependent; the bound degrades with cond(a)^2).
    """
    return _ata_solve(base.rinv, _operand(c, "c", base.a.shape[1], (1, 2)))


def _ata_solve(rinv: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``(a.T a)^{-1} c = R^{-1} (R^{-T} c)`` for a checked c."""
    # (R^{-T} c).T = c.T R^{-1}, then R^{-1} y = (y.T R^{-T}).T: both
    # products keep the skinny operand on the left of the n x n inverse.
    return ((c.T @ rinv) @ rinv.T).T


def _csne(a: np.ndarray, rinv: np.ndarray, c: np.ndarray) -> np.ndarray:
    """CSNE for a length-m c or an m x k block c: the seminormal solve,
    then one correction step on its residual (see :func:`base_lstsq`)."""
    # The skinny operand goes on the left of a (see the module docstring).
    x = _ata_solve(rinv, (c.T @ a).T)
    res = c - (x.T @ a.T).T
    x += _ata_solve(rinv, (res.T @ a).T)
    return x


def base_lstsq(base: PreparedBase, c) -> np.ndarray:
    """Minimize ``||c - a x||_2`` for a right-hand side c of length m, or
    for each column of an m x k block c.

    Runs the corrected seminormal equations (CSNE; Björck 1987, *Stability
    analysis of the method of seminormal equations for linear least squares
    problems*, LAA 88/89): the seminormal solve ``x = (a.T a)^{-1} a.T c``
    through R^{-1}, then one correction step on its residual. Three passes
    over ``a``, shared by all columns of a block, and no Q. The correction
    is what keeps the error within the least squares sensitivity bound
    ``kappa eps + kappa^2 eps ||r|| / (||a|| ||x||)``, kappa = cond(a);
    the seminormal solve alone exceeds it by orders of magnitude on
    ill-conditioned a. Measured on a graded 2000 x 100 a, one correction
    step keeps it within the bound up to cond 1e8 (``kappa^2 eps`` about
    2; 0.01x the bound) but not at cond 1e10 (about 2e4), where a zero
    residual leaves it 41x over, while ``prepare``'s ``x0`` for the bound
    right-hand side, from Householder QR at that cond(a), stays under it.
    The tests gate it up to cond 1e6.

    Raises DimensionMismatch unless c is a length-m vector or an m x k
    block, k >= 1, and NonFiniteValue when c holds NaN or infinity.
    """
    c = _operand(c, "c", base.a.shape[0], (1, 2))
    _require_finite(c, "c")
    return _csne(base.a, base.rinv, c)


def build_workspace(base: PreparedBase, upd: LowRankUpdate) -> UpdateWorkspace:
    """Assemble the per-update state: blocks, 2r system solves, capacitance.

    Costs one r x m by m x n product ``u.T @ a``, which both blocks share,
    plus 2r solves against ``a.T a``; after this, every right-hand side is
    an O(mn) solve.

    Raises SingularCapacitance when the capacitance ``I + yt @ z`` fails
    ``kernels.lu_factor_checked``, whose one threshold on its rcond
    (``2r * eps * kernels.CAP_GUARD`` here) marks an update that destroys
    full column rank, and NonFiniteValue when the capacitance overflows, as
    it does for a finite update far larger than a.
    """
    _conforming(upd, *base.a.shape)
    u, v, r = upd.u, upd.v, upd.rank
    with np.errstate(over="ignore", invalid="ignore"):
        uta = u.T @ base.a
        x_blk = np.hstack([v, uta.T])
        yt = np.vstack([uta + (u.T @ u) @ v.T, v.T])
        z = _ata_solve(base.rinv, x_blk)
        cap = np.eye(2 * r) + yt @ z
    if not np.isfinite(cap).all():
        raise NonFiniteValue(
            f"{2 * r} x {2 * r} capacitance overflowed: the update u v.T is "
            "too large relative to a"
        )
    cap_rcond = kernels.lu_factor_checked(cap)
    return UpdateWorkspace(
        x_blk=_freeze(x_blk), yt=_freeze(yt), z=_freeze(z),
        cap=_freeze(cap), cap_rcond=cap_rcond, rank=r,
    )


def _solve(base: PreparedBase, upd: LowRankUpdate, ws: UpdateWorkspace,
           b: np.ndarray) -> np.ndarray:
    """The update solve for a length-m vector b or an m x k block b.

    ``np.array_equal`` compares shapes, so a block never matches the bound
    vector b and each of its columns takes the CSNE solve of
    :func:`base_lstsq`.
    """
    if np.array_equal(b, base.b):
        x0 = base.x0
    else:
        # The bound b was screened by prepare; any other b is screened here,
        # beside the pass over the base that its solve costs anyway.
        _require_finite(b, "b")
        x0 = _csne(base.a, base.rinv, b)
    w = x0 + ws.z[:, : ws.rank] @ (upd.u.T @ b)
    return w - ws.z @ np.linalg.solve(ws.cap, ws.yt @ w)


def solve_updated(base: PreparedBase, upd: LowRankUpdate, ws: UpdateWorkspace,
                  b) -> SolveOutcome:
    """Minimize ``||b - (a + u v.T) x||_2`` using the prepared state.

    The solve runs

        w    = x0 + z[:, :r] @ (u.T @ b)
        x    = w - z @ solve(I + yt @ z, yt @ w)

    where x0 is reused from the base when b matches the bound right-hand
    side and recomputed by :func:`base_lstsq` otherwise. Intermediates
    stay O(r)-sized: yt @ w first, then the capacitance solve, then one
    n x 2r product.

    ``updated_normal_residual(base.a, upd.u, upd.v, x, b)`` certifies x
    (two passes over a). For a b other than the bound one, x0 comes from
    :func:`base_lstsq`, which was measured within the least squares
    sensitivity bound up to cond 1e8 and 41x over it at cond 1e10.

    Raises DimensionMismatch unless b is a length-m vector, and
    NonFiniteValue when b is not the bound right-hand side and holds NaN
    or infinity.
    """
    b = _operand(b, "b", base.a.shape[0], (1,))
    return SolveOutcome(x=_solve(base, upd, ws, b), cap_rcond=ws.cap_rcond)


def solve_many(base: PreparedBase, upd: LowRankUpdate, ws: UpdateWorkspace,
               bs) -> np.ndarray:
    """Solve the updated problem for every column of ``bs`` (m x k, k >= 1).

    Runs the solve of :func:`solve_updated` once on the whole block: the
    base solves are matrix products whose three passes over ``a`` all k
    columns share, and the correction is O(r)-sized per column. Every
    column, including one equal to the bound right-hand side, takes the
    base solve of :func:`base_lstsq`, so column j agrees with what
    ``solve_updated`` returns on ``bs[:, j]`` to roundoff (within 1e-13
    relative on well-conditioned instances), and the result is the same
    bits from run to run. Each column's base solve is :func:`base_lstsq`'s,
    measured within the least squares sensitivity bound up to cond 1e8
    and 41x over it at cond 1e10.

    Raises DimensionMismatch for any other shape of bs, and NonFiniteValue
    when any column holds NaN or infinity.
    """
    return _solve(base, upd, ws, _operand(bs, "bs", base.a.shape[0], (2,)))


def baseline_solve(a, u, v, b) -> np.ndarray:
    """From-scratch QR solve of ``min ||b - (a + u v.T) x||_2``.

    Factors ``[a + u v.T | b]`` by Householder QR without forming Q and
    returns the solution ``R^{-1} (Q.T b)`` that ``kernels.householder_qr``
    hands back: it inverts R in place, 2 n^3 / 3 flops, where back
    substitution would take n^2, after it has freed its buffer.
    ``kernels.householder_qr`` writes ``a + u v.T`` block by block
    straight into that buffer, so the updated matrix is never formed on
    its own and the solve holds one m x n array. This is the correctness
    oracle and the timing baseline the update path is measured against.

    Its inputs are checked as ``prepare`` and ``LowRankUpdate`` check
    them, except that the finiteness of a is read off the factor, through
    ``householder_qr``'s screen, so the timed solve makes no extra pass
    over a. Raises NonFiniteValue when a, u, v or b holds NaN or infinity,
    RankDeficient when ``a + u v.T`` lacks full column rank, and
    DimensionMismatch when a, u, v and b do not conform or the update's
    rank r is not within 1 <= r <= n.
    """
    a = _base_matrix(a)
    m, n = a.shape
    b = _operand(b, "b", m, (1,))  # None fails the shape check
    _require_finite(b, "b")
    upd = LowRankUpdate(u, v)
    _conforming(upd, m, n)
    return kernels.householder_qr(a, b, upd.u, upd.v)[1]
