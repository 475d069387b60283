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
never materialized: the solve reads only z (n x 2r), yt (2r x n) and the
2r x 2r capacitance from a workspace. A workspace also keeps x_blk, and
references to the base and the update it was built from, so that a solve
refuses any other.

``prepare`` gets R^{-1}, for an R with ``R.T R = a.T a``, without forming
Q. It first tries one Gram pass over ``a`` and a Cholesky factorization
(``kernels.cholesky_rinv``), with no copy of ``a``, and solves for the
bound b by the corrected seminormal equations (CSNE; Björck 1987, LAA
88/89) through that R^{-1}. Past its certificate, on an ``a`` that is
ill-conditioned for a Cholesky R, it factors ``[a | b]`` by Householder
QR, streamed by row blocks through one buffer of (n + 1) x (n + 1 + B)
doubles whatever m is (``kernels.qr_block``), and reads ``Q.T b`` off
it. Either way
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

``prepare``, ``LowRankUpdate``, ``ata_solve``, the solvers and
``updated_normal_residual`` take bool, integer and float arrays as
float64, and raise TypeError for any other dtype: a complex array, whose
imaginary part the cast would drop, and an object or string array,
``None`` included, which the cast would parse or turn into NaN.
Each input rule is written once, here, and ``lrlsq.cgls`` and
``lrlsq.mio`` call the same checks: ``_real`` (realness and the float64
cast), ``_require_finite`` (no NaN or infinity) and ``_operand`` (the
shape of a vector or an (n, k) block).

The solves compute no certificate of their own: a caller that wants one
runs ``updated_normal_residual``, the normal-equations residual of any x
for ``a + u v.T``, at the price of two passes over ``a``.

Every record here is immutable after construction, with no lazily built
state, and the solve path is pure: one PreparedBase may serve many
workspaces, and one workspace many right-hand sides, concurrently. The
records that hold arrays compare and hash by identity, as an array has no
one-bool ``==``; a caller may key workspaces by update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NonFiniteValue


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class UpdateWorkspace:
    """Per-update state, reusable across right-hand sides.

    base  : the PreparedBase it was built on, and
    upd   : the LowRankUpdate it was built for; references, not copies.
            :func:`solve_updated` and :func:`solve_many` refuse any other
            base, and any update over other arrays.
    x_blk : n x 2r block ``[v, a.T @ u]``. The solve does not read it.
    yt    : 2r x n block ``[u.T @ a + (u.T u) v.T; v.T]``; shares the one
            product u.T @ a with x_blk rather than touching the updated
            matrix.
    z     : n x 2r solution of ``(a.T a) z = x_blk``; its first r columns
            are ``(a.T a)^{-1} v``, reused by the solve step.
    cap   : the 2r x 2r capacitance ``I + yt @ z``; read-only.
    cap_rcond : its 1-norm reciprocal condition number.
    rank  : r, the update's rank.
    """

    base: PreparedBase
    upd: LowRankUpdate
    x_blk: np.ndarray
    yt: np.ndarray
    z: np.ndarray
    cap: np.ndarray
    cap_rcond: float
    rank: int


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """Solution of one updated least squares problem, returned by
    :func:`solve_updated`.

    x is the minimizer; :func:`updated_normal_residual` certifies it. The
    capacitance's rcond is on the workspace, as ``cap_rcond``.
    """

    x: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _real(x, name: str) -> np.ndarray:
    """x as a float64 array. Admits bool, integer and float arrays by their
    dtype kind; raises TypeError naming the dtype for any other, such as a
    complex array, whose imaginary part the cast would drop, or an object
    or string array (``None`` among them), which the cast would parse or
    turn into NaN."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
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
    """Raise NonFiniteValue if x holds NaN or infinity. No solver screens
    the base a this way: its factor carries any NaN or infinity of a (see
    :func:`prepare`)."""
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
    """``||ahat.T (ahat x - b)||_2`` without forming ``ahat = a + u v.T``.

    x is a length-n vector and b a length-m one, or x is n x k and b
    m x k; u is m x r and v n x r. Raises DimensionMismatch for any other
    shapes, and TypeError for an operand that is not a bool, integer or
    float array. It screens no finiteness:
    a NaN or infinity comes back as the result.
    """
    a = _base_matrix(a)
    m, n = a.shape
    x = _operand(x, "x", n, (1, 2))
    b = _operand(b, "b", m, (x.ndim,))
    u = _operand(u, "u", m, (2,))
    v = _operand(v, "v", n, (2,))
    if b.shape[1:] != x.shape[1:] or u.shape[1] != v.shape[1]:
        raise DimensionMismatch(f"x and b, and u and v, must share column counts, got "
                                f"x {x.shape}, b {b.shape}, u {u.shape}, v {v.shape}")
    # An infinity in x or b turns into NaN in these products, which is
    # passed on below without a warning. The skinny operand goes on the
    # left of a, as in _csne.
    with np.errstate(invalid="ignore"):
        rr = (x.T @ a.T).T + u @ (v.T @ x) - b
        g = (rr.T @ a).T + v @ (u.T @ rr)
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
    R^{-1}, so it holds the Gram matrix beside ``a`` and, at a time, at
    most two strips of 64 rows or columns: about n^2 + 128 n doubles. The
    base solution x0 for b is then CSNE through that R^{-1} (the body of
    :func:`base_lstsq`): three more passes over ``a``. When it cannot
    certify its R, because cond(a) is too large for a Cholesky R or a
    holds NaN or infinity, ``[a | b]`` is factored by Householder QR
    instead, at the cost of the Gram pass already made:
    ``kernels.householder_qr`` streams it by row blocks through one buffer
    of (n + 1) x (n + 1 + B) doubles, B = ``kernels.qr_block(n)``, and
    returns R^{-1} and
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
    and RankDeficient when a lacks full column rank. No pass over a
    screens it: a NaN or infinity in a makes ``a.T a``'s diagonal
    non-finite, which ``kernels.cholesky_rinv`` declines, and then R,
    which ``kernels.householder_qr``'s screen reports as a's.
    """
    a = _base_matrix(a)
    b = _operand(b, "b", a.shape[0], (1,))
    _require_finite(b, "b")
    rinv = kernels.cholesky_rinv(a)
    if rinv is not None:
        x0 = _csne(a, rinv, b)
    else:
        rinv, x0 = kernels.householder_qr(a, b)
    return PreparedBase(a=a, rinv=_freeze(rinv), b=_freeze(b.copy()), x0=_freeze(x0))


def ata_solve(base: PreparedBase, c) -> np.ndarray:
    """Solve ``(a.T a) z = c`` by two products with the prepared R^{-1}.

    c is a length-n vector or an n x k block of stacked columns, k >= 1;
    any other shape raises DimensionMismatch. The result z satisfies
    ``||a.T a z - c||_F <= ~1e-10 ||a.T a||_F ||z||_F`` on well-conditioned
    instances (instance-dependent; the bound degrades with cond(a)^2).
    The package does not export it: the solvers run ``_ata_solve``, and
    this checked form serves the benchmark's ``woodbury.ata_solve`` layer.
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
        base=base, upd=upd, x_blk=_freeze(x_blk), yt=_freeze(yt), z=_freeze(z),
        cap=_freeze(cap), cap_rcond=cap_rcond, rank=r,
    )


def _check_workspace(base: PreparedBase, upd: LowRankUpdate, ws: UpdateWorkspace) -> None:
    """Raise DimensionMismatch unless ws was built on base, and for upd or
    for an update over the same or equal arrays. Identity is tested first,
    so the usual call makes no pass over u."""
    if ws.base is not base:
        raise DimensionMismatch("the workspace was built on another base")
    for name in ("u", "v"):
        built, given = getattr(ws.upd, name), getattr(upd, name)
        if built is not given and not np.array_equal(built, given):
            raise DimensionMismatch(
                f"the workspace was built for another update: its {name} is not upd.{name}"
            )


def _solve(base: PreparedBase, upd: LowRankUpdate, ws: UpdateWorkspace,
           b: np.ndarray, name: str) -> np.ndarray:
    """The update solve for a length-m vector b or an m x k block b, which
    an error names as name.

    ``np.array_equal`` compares shapes, so a block never matches the bound
    vector b and each of its columns takes the CSNE solve of
    :func:`base_lstsq`.
    """
    _check_workspace(base, upd, ws)
    if np.array_equal(b, base.b):
        x0 = base.x0
    else:
        # The bound b was screened by prepare; any other b is screened here,
        # beside the pass over the base that its solve costs anyway.
        _require_finite(b, name)
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
    :func:`base_lstsq`, whose docstring gives its measured accuracy.

    Raises DimensionMismatch unless b is a length-m vector, and when ws
    was built on another base object or for an update over other arrays;
    and NonFiniteValue when b is not the bound right-hand side and holds
    NaN or infinity. Returns a SolveOutcome whose one field is x.
    """
    b = _operand(b, "b", base.a.shape[0], (1,))
    return SolveOutcome(x=_solve(base, upd, ws, b, "b"))


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
    whose docstring gives its measured accuracy.

    Raises DimensionMismatch for any other shape of bs and for a
    mismatched workspace, as :func:`solve_updated` does, and
    NonFiniteValue when any column holds NaN or infinity.
    """
    return _solve(base, upd, ws, _operand(bs, "bs", base.a.shape[0], (2,)), "bs")


def baseline_solve(a, u, v, b) -> np.ndarray:
    """From-scratch QR solve of ``min ||b - (a + u v.T) x||_2``.

    Factors ``[a + u v.T | b]`` by Householder QR without forming Q and
    returns the solution ``R^{-1} (Q.T b)`` that ``kernels.householder_qr``
    hands back: it inverts R in place, 2 n^3 / 3 flops, where back
    substitution would take n^2, after it has freed its buffer.
    ``kernels.householder_qr`` streams ``a + u v.T`` by row blocks
    straight into that buffer, of (n + 1) x (n + 1 + B) doubles with B =
    ``kernels.qr_block(n)``, so the updated matrix is never formed and
    the solve holds no array that grows with m. This is the correctness
    oracle and the timing baseline the update path is measured against.

    Its inputs are checked as ``prepare`` and ``LowRankUpdate`` check
    them: the finiteness of a is read off the factor, through
    ``householder_qr``'s screen, so the timed solve makes no extra pass
    over a. Raises NonFiniteValue when a, u, v or b holds NaN or infinity,
    RankDeficient when ``a + u v.T`` lacks full column rank, and
    DimensionMismatch when a, u, v and b do not conform or the update's
    rank r is not within 1 <= r <= n.
    """
    a = _base_matrix(a)
    m, n = a.shape
    b = _operand(b, "b", m, (1,))
    _require_finite(b, "b")
    upd = LowRankUpdate(u, v)
    _conforming(upd, m, n)
    return kernels.householder_qr(a, b, upd.u, upd.v)[1]
