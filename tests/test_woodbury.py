import dataclasses
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import draw_family, draw_instance, rank_drop_instance
from oracles import numerical_rank, pinv_oracle, pinv_update_explicit, qr_reference
from lrlsq.errors import DimensionMismatch, NonFiniteValue, RankDeficient, SingularCapacitance
from lrlsq import kernels, woodbury
from lrlsq.woodbury import (
    LowRankUpdate,
    ata_solve,
    base_lstsq,
    baseline_solve,
    build_workspace,
    prepare,
    solve_many,
    solve_updated,
    updated_normal_residual,
)

# The worked 3 x 2 instance: ahat.T ahat = diag(2, 1), ahat.T b = [8, 4],
# so the minimizer is [4, 4].
A32 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
B32 = np.array([3.0, 4.0, 5.0])
U32 = np.array([[0.0], [0.0], [1.0]])
V32 = np.array([[1.0], [0.0]])
X32 = np.array([4.0, 4.0])


def _solve(a, b, u, v):
    base = prepare(a, b)
    upd = LowRankUpdate(u, v)
    ws = build_workspace(base, upd)
    return solve_updated(base, upd, ws, b), base, upd, ws


# ----------------------------------------------------------------- prepare

def test_prepare_identity():
    b = np.array([1.0, -2.0, 3.0])
    base = prepare(np.eye(3), b)
    np.testing.assert_array_equal(base.x0, b)


def test_prepare_hand_checked():
    base = prepare(A32, B32)
    np.testing.assert_allclose(base.x0, [3.0, 4.0], atol=1e-15)


def test_prepare_rank_deficient():
    # cholesky_rinv declines a rank-deficient a, and the Householder QR
    # prepare falls back to names the cause, in its own words.
    col = np.arange(1.0, 5.0)[:, None]
    rng = np.random.default_rng(40)
    wide = rng.standard_normal((2000, 100))
    wide[:, 7] = wide[:, :7] @ rng.standard_normal(7)
    for a, b in [(np.hstack([col, col]), np.ones(4)), (wide, rng.standard_normal(2000))]:
        with pytest.raises(RankDeficient) as want:
            kernels.householder_qr(a, b)
        with pytest.raises(RankDeficient, match=r"^a of shape ") as got:
            prepare(a, b)
        assert str(got.value) == str(want.value)


def test_prepare_normal_equations_invariant():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((25, 7))
    b = rng.standard_normal(25)
    base = prepare(a, b)
    anorm = np.linalg.norm(a)
    resid = np.linalg.norm(a.T @ (a @ base.x0 - b))
    assert resid <= 1e-10 * anorm**2 * (np.linalg.norm(base.x0) + np.linalg.norm(b) / anorm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prepare_rejects_non_finite_input(bad):
    rng = np.random.default_rng(14)
    a = rng.standard_normal((20, 5))
    b = rng.standard_normal(20)
    a_bad = a.copy()
    a_bad[3, 1] = bad
    with pytest.raises(NonFiniteValue, match="a contains"):
        prepare(a_bad, b)
    with pytest.raises(NonFiniteValue, match="a contains"):
        prepare(np.asfortranarray(a_bad), b)
    b_bad = b.copy()
    b_bad[7] = bad
    with pytest.raises(NonFiniteValue, match="b contains"):
        prepare(a, b_bad)


# --------------------------------------------------------------- ata_solve

def test_ata_solve_identity():
    base = prepare(np.eye(3), np.zeros(3))
    c = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(ata_solve(base, c), c)


def test_ata_solve_diagonal_hand_checked():
    base = prepare(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.zeros(3))
    np.testing.assert_allclose(ata_solve(base, np.array([1.0, 1.0])), [0.25, 1.0],
                               atol=1e-15)


def test_ata_solve_constructed_solution():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((30, 8))
    w = rng.standard_normal((8, 2))
    c = (a.T @ a) @ w
    z = ata_solve(prepare(a, np.zeros(30)), c)
    np.testing.assert_allclose(z, w, rtol=1e-10, atol=1e-12)


def test_ata_solve_dimension_mismatch():
    base = prepare(np.eye(3), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        ata_solve(base, np.ones(2))
    # Neither a vector nor a block: a scalar has no rows to check, and a
    # 3-D c has a first axis of the right length.
    for c in (3.0, np.ones((3, 2, 2))):
        with pytest.raises(DimensionMismatch,
                           match=r"^c must be a length-3 vector or an \(3, k\) matrix, got shape"):
            ata_solve(base, c)


# --------------------------------------------------------- build_workspace

def test_workspace_zero_update_builds():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((12, 5))
    base = prepare(a, np.zeros(12))
    ws = build_workspace(base, LowRankUpdate(np.zeros((12, 2)), rng.standard_normal((5, 2))))
    assert 0.0 < ws.cap_rcond <= 1.0
    assert ws.z.shape == (5, 4) and ws.yt.shape == (4, 5)


def test_workspace_rank_drop_fixture():
    base = prepare(A32, B32)
    upd = LowRankUpdate(np.array([[-1.0], [0.0], [0.0]]), np.array([[1.0], [0.0]]))
    with pytest.raises(SingularCapacitance):
        build_workspace(base, upd)


def test_workspace_rank_drop_has_one_threshold_and_one_message():
    # u = (d - 1) e1 leaves column 0 of A32 + u v.T at d e1, and the
    # capacitance determinant is d^2. At d = 1e-8 its rcond is at roundoff
    # level; at d = 1e-7 it lies above 2r eps but below 2r eps CAP_GUARD.
    # Both are rank drop, and both say so in the same words.
    base = prepare(A32, B32)
    v = np.array([[1.0], [0.0]])
    lo, hi = 2 * kernels.EPS, 2 * kernels.EPS * kernels.CAP_GUARD
    messages = []
    for d, (below, above) in [(1e-8, (0.0, lo)), (1e-7, (lo, hi))]:
        upd = LowRankUpdate(np.array([[d - 1.0], [0.0], [0.0]]), v)
        cap = np.array([[1.0 - d * (1 - d), d * (1 - d) ** 2], [1.0, d]])
        assert below < 1.0 / np.linalg.cond(cap, 1) < above
        with pytest.raises(SingularCapacitance) as info:
            build_workspace(base, upd)
        messages.append(re.sub(r"rcond \S+", "rcond _", str(info.value)))
    assert "appears rank-deficient" in messages[0]
    assert messages[0] == messages[1]


@pytest.mark.parametrize("scale", [1e150, 1e300])
def test_workspace_overflow_names_its_cause(scale):
    # A finite update this large overflows the capacitance. The error says
    # so, and no overflow RuntimeWarning escapes (pytest makes one an error).
    rng = np.random.default_rng(21)
    a, b, u, v, base, _ = draw_instance(rng, 40, 6, 2)
    with pytest.raises(NonFiniteValue, match="capacitance overflowed"):
        build_workspace(base, LowRankUpdate(scale * u, v))


def test_workspace_solves_block_system():
    rng = np.random.default_rng(15)
    a, b, u, v, base, ws = draw_instance(rng, 20, 6, 2)
    ata = a.T @ a
    assert (np.linalg.norm(ata @ ws.z - np.hstack([v, a.T @ u]))
            <= 1e-10 * np.linalg.norm(ata) * np.linalg.norm(ws.z))


def test_workspace_reuses_first_block_for_v():
    rng = np.random.default_rng(16)
    a, b, u, v, base, ws = draw_instance(rng, 25, 7, 3)
    np.testing.assert_allclose(ws.z[:, :3], ata_solve(base, v), rtol=1e-12, atol=1e-14)


def test_workspace_dimension_mismatch():
    base = prepare(np.eye(4), np.zeros(4))
    with pytest.raises(DimensionMismatch):
        build_workspace(base, LowRankUpdate(np.ones((3, 1)), np.ones((3, 1))))


def _update_by_triangular_solves(a, b, u, v):
    """Reference update path: z from two triangular solves against R.

    Returns (z, x) for the bound right-hand side b.
    """
    q, r = qr_reference(a)
    atu = a.T @ u
    x_blk = np.hstack([v, atu])
    yt = np.vstack([atu.T + (u.T @ u) @ v.T, v.T])
    z = scipy.linalg.solve_triangular(r, scipy.linalg.solve_triangular(r, x_blk, trans="T"))
    x0 = scipy.linalg.solve_triangular(r, q.T @ b)
    w = x0 + z[:, : u.shape[1]] @ (u.T @ b)
    x = w - z @ np.linalg.solve(np.eye(yt.shape[0]) + yt @ z, yt @ w)
    return z, x


def test_update_path_matches_triangular_solves():
    # The workspace's z and the solve with the bound b, both from products
    # with the prepared R^{-1}, against two triangular solves with R.
    # That the library runs without scipy is test_numpy_only's to check.
    rng = np.random.default_rng(17)
    a, b, u, v, base, _ = draw_instance(rng, 400, 60, 4)
    z_ref, x_ref = _update_by_triangular_solves(a, b, u, v)
    upd = LowRankUpdate(u, v)
    ws = build_workspace(base, upd)
    x = solve_updated(base, upd, ws, b).x
    assert np.linalg.norm(ws.z - z_ref) <= 1e-13 * np.linalg.norm(z_ref)
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)


def test_prepare_and_baseline_solve_stay_off_numpy_qr(monkeypatch):
    # The library forms no q: one Gram pass and a Cholesky factorization,
    # or LAPACK geqrf in place on one Fortran-ordered copy. numpy's qr
    # would add two m x n transposes, and scipy's would wake scipy's BLAS
    # pool just before the update path's numpy products. Only the tests'
    # reference QR, and kernels.qr_thin for the benchmark, call one.
    rng = np.random.default_rng(18)
    a, b, u, v, base_ref, _ = draw_instance(rng, 300, 40, 3)
    x_ref = baseline_solve(a, u, v, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("a library QR front end called")

    monkeypatch.setattr(np.linalg, "qr", forbidden)
    monkeypatch.setattr(scipy.linalg, "qr", forbidden)
    base = prepare(a, b)
    np.testing.assert_array_equal(base.x0, base_ref.x0)
    np.testing.assert_array_equal(baseline_solve(a, u, v, b), x_ref)


def _explicit_q_solve(a, b):
    q, r = qr_reference(a)
    return scipy.linalg.solve_triangular(r, q.T @ b)


def test_fresh_rhs_matches_explicit_q_solve():
    rng = np.random.default_rng(32)
    a, b, u, v, base, ws = draw_instance(rng, 300, 40, 3)
    for b2 in rng.standard_normal((3, 300)):
        x = base_lstsq(base, b2)
        ref = _explicit_q_solve(a, b2)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_fresh_rhs_bitwise_across_threads():
    # A prepared base is plain data: threads that share one get the same
    # answer for a new right-hand side as a lone caller, bit for bit.
    rng = np.random.default_rng(33)
    a, b, u, v, base, ws = draw_instance(rng, 200, 20, 2)
    upd = LowRankUpdate(u, v)
    b2 = rng.standard_normal(200)
    want = solve_updated(base, upd, ws, b2).x
    start = threading.Barrier(4)
    out = [None] * 4

    def fresh_solve(i):
        start.wait()
        out[i] = solve_updated(base, upd, ws, b2).x

    threads = [threading.Thread(target=fresh_solve, args=(i,)) for i in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for x in out:
        np.testing.assert_array_equal(x, want)


def test_prepared_base_holds_arrays_of_at_most_n_squared_entries():
    # Beyond a and the bound b, a base keeps O(n^2) memory: R^{-1}, x0 and
    # nothing of the m x n factorization.
    rng = np.random.default_rng(34)
    m, n = 300, 20
    base = prepare(rng.standard_normal((m, n)), rng.standard_normal(m))
    for field in dataclasses.fields(base):
        value = getattr(base, field.name)
        assert isinstance(value, np.ndarray), field.name
        if field.name not in ("a", "b"):
            assert value.size <= n * n, field.name


def _graded(rng, m, n, cond):
    """a = P diag(s) Q' with Haar-random P, Q and s log-spaced from 1 to
    1/cond, so ||a||_2 = 1 and cond(a) = cond; returns (a, P)."""
    p, _ = np.linalg.qr(rng.standard_normal((m, n)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (p * np.geomspace(1.0, 1.0 / cond, n)) @ q.T, p


def _counting_householder_qr(monkeypatch):
    """Count calls of ``kernels.householder_qr``, prepare's fallback;
    returns a list that grows by one per call."""
    calls = []
    real = kernels.householder_qr

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "householder_qr", counting)
    return calls


# The graded shapes of the accuracy grid, each with the largest cond(a) at
# which cholesky_rinv certifies its R there. A cell's id names its shape
# unless that is 2000 x 100.
CERTIFIED_THROUGH = {(2000, 100): 3e4, (6000, 300): 1e4}
ENVELOPE = [pytest.param(m, n, cond, id=repr(cond) if m == 2000 else f"{cond!r}-{m}x{n}")
            for m, n in CERTIFIED_THROUGH for cond in [1e2, 1e4, 3e4, 1e5, 1e6, 1e10]]


@pytest.mark.parametrize("m,n,cond", ENVELOPE)
@pytest.mark.parametrize("residual", ["zero", "large"])
def test_fresh_rhs_within_sensitivity_bound(m, n, cond, residual, monkeypatch):
    # The first-order least squares sensitivity bound (Wedin 1973):
    # kappa eps + kappa^2 eps ||r|| / (||a|| ||x||). The bound base solution
    # stays under it on both of prepare's paths (0.39x at worst here). The
    # corrected seminormal equations do too up to cond 1e6 (0.39x at
    # worst); the seminormal solve alone exceeds it on every zero-residual
    # case, by up to five orders of magnitude at cond 1e6. At cond 1e10 one
    # correction step no longer suffices: cond^2 eps > 1, and CSNE lands
    # 41x (2000 x 100) and 96x (6000 x 300) over the bound with a zero
    # residual.
    # cholesky_rinv certifies while kappa^2 eps <= TAU = 1e-4, for kappa
    # the Hoelder bound on cond(R), which is 7 to 17 times cond(a) at
    # 2000 x 100 and 20 to 44 times at 6000 x 300 (cond 1e2 to 1e6):
    # certified through cond 3e4 and 1e4, Householder QR above.
    # Certified, x0 is CSNE through the Cholesky R^{-1}. Björck's analysis
    # of CSNE assumes a backward-stable R, so this grid is the evidence
    # for TAU.
    calls = _counting_householder_qr(monkeypatch)
    rng = np.random.default_rng(36)
    a, p = _graded(rng, m, n, cond)
    ax = a @ rng.standard_normal(n)
    b = ax
    if residual == "large":
        r = rng.standard_normal(m)
        r -= p @ (p.T @ r)
        b = ax + (np.linalg.norm(ax) / np.linalg.norm(r)) * r
    ref = np.linalg.lstsq(a, b, rcond=None)[0]
    kappa_eps = cond * np.finfo(np.float64).eps
    bound = kappa_eps + cond * kappa_eps * np.linalg.norm(b - a @ ref) / (
        np.linalg.norm(a, 2) * np.linalg.norm(ref))
    base = prepare(a, b)
    assert len(calls) == (0 if cond <= CERTIFIED_THROUGH[m, n] else 1)
    assert np.linalg.norm(base.x0 - ref) <= bound * np.linalg.norm(ref)
    if cond <= 1e6:
        x = base_lstsq(base, b)
        assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)


# Update cells of the accuracy grid, (cond, residual, update_scale), with
# the update path's error over the bound as measured at one and two BLAS
# threads. It is gated where that stays under C_BOUND / 3, and pinned as a
# known defect where it exceeds 3 C_BOUND (ROADMAP item 4) or where the
# capacitance check rejects a full-rank update (item 7); cond 1e2 with a
# large residual at scale 1e-2 (3.2x-6.3x) is left out. solve_many gives
# the bound-b route's bits on these certified bases, so it has no cells
# of its own. A cell's id names its scale unless that is 1e-2.
C_BOUND = 10.0
ITEM_4 = pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the update path starts from "
                           "the base solution and corrects nothing on the updated problem")
ITEM_7 = pytest.mark.xfail(strict=True, raises=SingularCapacitance,
                           reason="ROADMAP item 7: the capacitance's rcond measures the scale "
                           "of (a.T a)^{-1} along v, not the rank of a + u v.T")


def _cell(cond, residual, update_scale=1e-2, marks=()):
    tag = "" if update_scale == 1e-2 else f"-scale{update_scale:.0e}"
    return pytest.param(cond, residual, update_scale, marks=marks, id=f"{cond!r}-{residual}{tag}")


UPDATE_CELLS = [
    _cell(1.0, "zero"),                       # 1.6x-1.7x
    _cell(1.0, "large"),                      # 0.5x-0.6x
    _cell(1e2, "zero", marks=ITEM_4),         # 206x-872x
    _cell(1e4, "zero", marks=ITEM_4),         # 1.3e6x-2.6e6x
    _cell(1e4, "large", marks=ITEM_4),        # 164x-238x
    _cell(1e6, "zero", marks=ITEM_7),
    _cell(1e6, "large", marks=ITEM_7),
    _cell(1.0, "zero", 1e-4),                 # 0.51x-0.52x
    _cell(1.0, "large", 1e-4),                # 0.73x
    _cell(1e2, "zero", 1e-4),                 # 0.29x-0.32x
    _cell(1e2, "large", 1e-4),                # 0.19x-0.21x
    _cell(1e4, "zero", 1e-4, marks=ITEM_7),
    _cell(1e4, "large", 1e-4, marks=ITEM_7),
    _cell(1e6, "zero", 1e-4, marks=ITEM_7),
    _cell(1e6, "large", 1e-4, marks=ITEM_7),
]


def _known_solution_update(cond, residual, update_scale=1e-2):
    """A graded 2000 x 100 a, a rank-5 update with u scaled by
    update_scale, and b = ahat x_t plus, for "large", a residual
    orthogonal to range(ahat) of norm ||ahat x_t||, so x_t is the
    minimizer; returns (a, u, v, b, x_t, bound), bound the sensitivity
    bound of the updated problem from the SVD of ahat."""
    rng = np.random.default_rng(5)
    m, n, r = 2000, 100, 5
    a = _graded(rng, m, n, cond)[0]
    u = update_scale * rng.standard_normal((m, r))
    v = rng.standard_normal((n, r))
    ahat = a + u @ v.T
    p, s, _ = np.linalg.svd(ahat, full_matrices=False)
    x_t = rng.standard_normal(n)
    b = ahat @ x_t
    res = np.zeros(m)
    if residual == "large":
        res = rng.standard_normal(m)
        res -= p @ (p.T @ res)
        res *= np.linalg.norm(b) / np.linalg.norm(res)
    kappa_eps = s[0] / s[-1] * np.finfo(np.float64).eps
    bound = kappa_eps * (1.0 + np.linalg.norm(res) / (s[-1] * np.linalg.norm(x_t)))
    return a, u, v, b + res, x_t, bound


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("residual", ["zero", "large"])
def test_baseline_within_sensitivity_bound(cond, residual):
    # Householder QR of the updated matrix: at most 0.59x its bound here.
    a, u, v, b, x_t, bound = _known_solution_update(cond, residual)
    x = baseline_solve(a, u, v, b)
    assert np.linalg.norm(x - x_t) <= C_BOUND * bound * np.linalg.norm(x_t)


@pytest.mark.parametrize("cond, residual, update_scale", UPDATE_CELLS)
def test_update_path_within_sensitivity_bound(cond, residual, update_scale):
    # The solve with the bound b. On a certified base, as every base here
    # is, a fresh b gives the same bits: x0 and base_lstsq run one CSNE.
    a, u, v, b, x_t, bound = _known_solution_update(cond, residual, update_scale)
    out, *_ = _solve(a, b, u, v)
    assert np.linalg.norm(out.x - x_t) <= C_BOUND * bound * np.linalg.norm(x_t)


@ITEM_7
def test_full_rank_update_of_ill_conditioned_base_raises_no_rank_error():
    # a + u v.T keeps full column rank: cond 1.0e10, as cond(a), and
    # baseline_solve solves it. The capacitance's rcond is 1.0e-41.
    rng = np.random.default_rng(38)
    a = _graded(rng, 2000, 100, 1e10)[0]
    u = 1e-3 * 1e-10 * rng.standard_normal((2000, 3))  # sigma_min(a) = 1e-10
    v = rng.standard_normal((100, 3))
    b = rng.standard_normal(2000)
    assert np.linalg.cond(a + u @ v.T) < 2e10
    assert np.all(np.isfinite(baseline_solve(a, u, v, b)))
    base = prepare(a, b)
    build_workspace(base, LowRankUpdate(u, v))


@pytest.mark.parametrize("t", [1e-2, 1.0, pytest.param(1e3, marks=ITEM_7)])
def test_factor_split_of_one_update_raises_no_rank_error(t):
    # (t u, v / t) is the same update u v.T for every t, and the updated
    # matrix keeps full rank. Yet the capacitance's 1-norm rcond falls as
    # t^-4: 1.1e-5 at t = 1, 1.1e-9 at 10 and 1.1e-13 at 100, against a
    # threshold of 2.2e-12. With the check skipped, the answer stays
    # within 3.2e-15 of baseline_solve up to t = 1e6.
    rng = np.random.default_rng(47)
    a = rng.standard_normal((2000, 100))
    u = rng.standard_normal((2000, 5))
    v = rng.standard_normal((100, 5))
    b = rng.standard_normal(2000)
    want = baseline_solve(a, u, v, b)
    out, *_ = _solve(a, b, t * u, v / t)
    assert np.linalg.norm(out.x - want) <= 1e-10 * np.linalg.norm(want)


def _prepare_by_householder(a, b, monkeypatch):
    """prepare on its Householder path alone: cholesky_rinv made to decline."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "cholesky_rinv", lambda a: None)
        return prepare(a, b)


def test_certified_prepare_matches_householder_prepare(monkeypatch):
    # The Cholesky R^{-1} and the CSNE x0 against R^{-1} and R^{-1} Q'b.
    rng = np.random.default_rng(39)
    a = rng.standard_normal((3000, 600))
    b = rng.standard_normal(a.shape[0])
    calls = _counting_householder_qr(monkeypatch)
    got = prepare(a, b)
    assert not calls
    want = _prepare_by_householder(a, b, monkeypatch)
    for name in ("rinv", "x0"):
        g, w = getattr(got, name), getattr(want, name)
        assert np.linalg.norm(g - w) <= 1e-14 * np.linalg.norm(w), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["1e-300", "1e-200", "1e-160", "1e200", "1e300", "cond1e10"])
def test_declined_prepare_is_householder_prepare(case, monkeypatch):
    # a.T a overflows at 1e200 and up, and underflows to zero at 1e-200 and
    # below; at 1e-160 it is subnormal, below the scale at which the
    # certificate accounts for its roundoff. None of these may warn, and
    # all of them, like an ill-conditioned a, get what Householder QR gives.
    rng = np.random.default_rng(38)
    if case == "cond1e10":
        a = _graded(rng, 2000, 100, 1e10)[0]
    else:
        a = float(case) * rng.standard_normal((200, 20))
    b = rng.standard_normal(a.shape[0])
    calls = _counting_householder_qr(monkeypatch)
    got = prepare(a, b)
    assert len(calls) == 1
    want = _prepare_by_householder(a, b, monkeypatch)
    np.testing.assert_array_equal(got.rinv, want.rinv)
    np.testing.assert_array_equal(got.x0, want.x0)


def test_prepare_reads_finiteness_of_a_only_on_householder_path(monkeypatch):
    # A certified cholesky_rinv already vouches that a is finite; only the
    # Householder fallback screens a itself.
    calls = []
    real = woodbury._require_finite

    def counting(x, name):
        calls.append(name)
        return real(x, name)

    monkeypatch.setattr(woodbury, "_require_finite", counting)
    rng = np.random.default_rng(42)
    b = rng.standard_normal(400)
    prepare(rng.standard_normal((400, 40)), b)
    assert calls.count("a") == 0
    prepare(_graded(rng, 400, 40, 1e10)[0], b)
    assert calls.count("a") == 1


@pytest.mark.parametrize("m,n", [(6, 6), (7, 6), (12, 1), (30, 5)])
def test_prepare_edge_shapes(m, n):
    # m = n: [a | b] is wider than tall; m = n + 1: b has one row left below
    # the top n; n = 1: a single reflector.
    rng = np.random.default_rng(m * 10 + n)
    a = rng.standard_normal((m, n)) + 3.0 * np.eye(m, n)
    b, b2 = rng.standard_normal((2, m))
    base = prepare(a, b)
    ref = _explicit_q_solve(a, b)
    assert np.linalg.norm(base.x0 - ref) <= 1e-13 * np.linalg.norm(ref)
    ref2 = _explicit_q_solve(a, b2)
    assert np.linalg.norm(base_lstsq(base, b2) - ref2) <= 1e-13 * np.linalg.norm(ref2)
    upd = LowRankUpdate(rng.standard_normal((m, 1)), rng.standard_normal((n, 1)))
    x = solve_updated(base, upd, build_workspace(base, upd), b2).x
    x_ref = baseline_solve(a, upd.u, upd.v, b2)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("shape", [(5,), (3, 4), (5, 0), (0, 0), (5, 2, 2)], ids=str)
@pytest.mark.parametrize("fn", ["prepare", "baseline_solve"])
def test_base_matrix_shape_mismatch(fn, shape):
    # A base is an (m, n) matrix with m >= n >= 1: no update of 1 <= r <= n
    # conforms to one with no columns. b and u have a's first axis, so only
    # a is wrong.
    a = np.ones(shape)
    b, u, v = np.ones(len(a)), np.ones((len(a), 1)), np.ones((1, 1))
    call = {"prepare": lambda: prepare(a, b),
            "baseline_solve": lambda: baseline_solve(a, u, v, b)}[fn]
    with pytest.raises(DimensionMismatch, match=r"^a must be an \(m, n\) matrix, m >= n >= 1, "
                                                 rf"got shape {re.escape(str(shape))}$"):
        call()


def test_update_shape_validation():
    with pytest.raises(DimensionMismatch):
        LowRankUpdate(np.ones((4, 2)), np.ones((4, 3)))  # r mismatch
    with pytest.raises(DimensionMismatch):
        LowRankUpdate(np.ones((3, 2)), np.ones((4, 2)))  # n > m
    with pytest.raises(DimensionMismatch):
        LowRankUpdate(np.ones((4, 0)), np.ones((3, 0)))  # empty update
    with pytest.raises(DimensionMismatch):
        LowRankUpdate(np.ones((4, 3)), np.ones((2, 3)))  # r > n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_update_rejects_non_finite_factors(bad):
    u = np.ones((4, 2))
    u[1, 0] = bad
    with pytest.raises(NonFiniteValue, match="u contains"):
        LowRankUpdate(u, np.ones((3, 2)))
    with pytest.raises(NonFiniteValue, match="v contains"):
        LowRankUpdate(np.ones((4, 2)), u[:3])


def test_update_accepts_finite_factors_whose_sum_overflows():
    upd = LowRankUpdate(np.full((4, 2), 1e308), np.ones((3, 2)))
    assert upd.rank == 2


# ------------------------------------------------------------ solve_updated

def test_solve_hand_checked():
    out, *_ = _solve(A32, B32, U32, V32)
    np.testing.assert_allclose(out.x, X32, atol=1e-14)
    assert 0.0 < out.cap_rcond <= 1.0


def test_zero_update_returns_base_solution():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((15, 6))
    b = rng.standard_normal(15)
    base = prepare(a, b)
    for u, v in [
        (np.zeros((15, 2)), rng.standard_normal((6, 2))),
        (rng.standard_normal((15, 2)), np.zeros((6, 2))),
    ]:
        upd = LowRankUpdate(u, v)
        ws = build_workspace(base, upd)
        x = solve_updated(base, upd, ws, b).x
        assert np.linalg.norm(x - base.x0) <= 1e-13 * np.linalg.norm(base.x0)


def test_matches_baseline_across_family():
    rng = np.random.default_rng(18)
    for a, b, u, v, base, ws in draw_family(rng, 50):
        upd = LowRankUpdate(u, v)
        x2 = solve_updated(base, upd, ws, b).x
        x1 = baseline_solve(a, u, v, b)
        assert np.linalg.norm(x2 - x1) <= 1e-10 * np.linalg.norm(x1)


def test_normal_equations_certificate():
    rng = np.random.default_rng(19)
    for a, b, u, v, base, ws in draw_family(rng, 25):
        upd = LowRankUpdate(u, v)
        x = solve_updated(base, upd, ws, b).x
        ahat_norm = np.linalg.norm(a + u @ v.T)
        bound = 1e-10 * ahat_norm**2 * (
            np.linalg.norm(x) + np.linalg.norm(b) / ahat_norm
        )
        assert updated_normal_residual(a, u, v, x, b) <= bound


@pytest.mark.filterwarnings("error")
def test_normal_equations_certificate_at_extreme_scale():
    # Scaling a and v by s scales ahat by s, so x by 1 / s and the
    # certificate by s. At s = 1e300 the entries of ahat.T r are near 1e300
    # and their squares overflow.
    rng = np.random.default_rng(41)
    a = rng.standard_normal((40, 6))
    u = rng.standard_normal((40, 2))
    v = rng.standard_normal((6, 2))
    b = rng.standard_normal(40)
    x = rng.standard_normal(6)
    s = 1e300
    want = s * updated_normal_residual(a, u, v, x, b)
    got = updated_normal_residual(s * a, u, s * v, x / s, b)
    assert abs(got - want) <= 1e-12 * want
    base = prepare(s * a, b)
    upd = LowRankUpdate(u, s * v)
    x = solve_updated(base, upd, build_workspace(base, upd), b).x
    assert np.isfinite(updated_normal_residual(s * a, u, s * v, x, b))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["x", "b"])
def test_normal_equations_certificate_passes_non_finite_on(name, bad):
    # An infinity in x or b meets entries of both signs in the products
    # and turns into NaN there, which numpy warns about unless told not
    # to; the certificate passes the non-finite value on, with no warning.
    rng = np.random.default_rng(46)
    args = {"a": rng.standard_normal((40, 6)), "u": rng.standard_normal((40, 2)),
            "v": rng.standard_normal((6, 2)), "x": rng.standard_normal(6),
            "b": rng.standard_normal(40)}
    args[name][3] = bad
    assert not np.isfinite(updated_normal_residual(**args))


def test_solve_with_fresh_rhs_recomputes_base_solution():
    rng = np.random.default_rng(20)
    a, b, u, v, base, ws = draw_instance(rng, 30, 9, 2)
    upd = LowRankUpdate(u, v)
    b2 = rng.standard_normal(30)
    x2 = solve_updated(base, upd, ws, b2).x
    x1 = baseline_solve(a, u, v, b2)
    assert np.linalg.norm(x2 - x1) <= 1e-10 * np.linalg.norm(x1)
    # the bound x0 is untouched
    np.testing.assert_array_equal(base.b, b)


def test_solve_rejects_bad_rhs_shape():
    _, base, upd, ws = _solve(A32, B32, U32, V32)
    with pytest.raises(DimensionMismatch):
        solve_updated(base, upd, ws, np.ones(4))


_B_VECTOR = "b must be a length-20 vector"
_ALLOWED = {
    "prepare": _B_VECTOR,
    "baseline_solve": _B_VECTOR,
    "solve_updated": _B_VECTOR,
    "solve_many": r"bs must be an \(20, k\) matrix",
    "ata_solve": r"c must be a length-5 vector or an \(5, k\) matrix",
    "base_lstsq": r"c must be a length-20 vector or an \(20, k\) matrix",
}


@pytest.mark.parametrize("fn, shape", [
    ("prepare", (20, 1)),
    ("prepare", (19,)),
    ("baseline_solve", None),
    ("baseline_solve", (20, 1)),
    ("solve_updated", (20, 1)),
    ("solve_many", (20,)),
    ("solve_many", (20, 0)),
    ("solve_many", (19, 2)),
    ("ata_solve", (5, 0)),
    ("ata_solve", (4,)),
    ("ata_solve", (5, 2, 2)),
    ("base_lstsq", (19,)),
    ("base_lstsq", (20, 0)),
    ("base_lstsq", (20, 1, 1)),
], ids=str)
def test_operand_shape_mismatch_names_allowed_shapes(fn, shape):
    # One check at the boundary of every solver: the message names the
    # shapes it takes and the one it got. A matrix needs a column.
    rng = np.random.default_rng(44)
    a, b, u, v, base, ws = draw_instance(rng, 20, 5, 2)
    upd = LowRankUpdate(u, v)
    bad = None if shape is None else rng.standard_normal(shape)
    call = {
        "prepare": lambda: prepare(a, bad),
        "baseline_solve": lambda: baseline_solve(a, u, v, bad),
        "solve_updated": lambda: solve_updated(base, upd, ws, bad),
        "solve_many": lambda: solve_many(base, upd, ws, bad),
        "ata_solve": lambda: ata_solve(base, bad),
        "base_lstsq": lambda: base_lstsq(base, bad),
    }[fn]
    got = re.escape(str(() if shape is None else shape))
    with pytest.raises(DimensionMismatch, match=rf"^{_ALLOWED[fn]}, got shape {got}$"):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_non_finite_fresh_rhs(bad):
    rng = np.random.default_rng(21)
    a, b, u, v, base, ws = draw_instance(rng, 20, 5, 2)
    upd = LowRankUpdate(u, v)
    b2 = rng.standard_normal(20)
    b2[4] = bad
    with pytest.raises(NonFiniteValue, match="b contains"):
        solve_updated(base, upd, ws, b2)
    with pytest.raises(NonFiniteValue, match="b contains"):
        solve_many(base, upd, ws, np.column_stack([b, b2]))
    with pytest.raises(NonFiniteValue, match="c contains"):
        base_lstsq(base, b2)
    assert np.all(np.isfinite(solve_updated(base, upd, ws, b).x))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["a", "b", "u", "v", "fresh b", "bs", "c"])
def test_complex_input_raises_type_error(name):
    # Converting a complex input to float64 would drop its imaginary part.
    rng = np.random.default_rng(22)
    a, b, u, v, base, ws = draw_instance(rng, 20, 5, 2)
    upd = LowRankUpdate(u, v)
    real = {"a": a, "b": b, "u": u, "v": v, "fresh b": rng.standard_normal(20),
            "bs": rng.standard_normal((20, 3)), "c": np.hstack([v, a.T @ u])}[name]
    bad = real * (1 + 1j)
    calls = {
        "a": [lambda: prepare(bad, b), lambda: baseline_solve(bad, u, v, b)],
        "b": [lambda: prepare(a, bad), lambda: baseline_solve(a, u, v, bad)],
        "u": [lambda: LowRankUpdate(bad, v), lambda: baseline_solve(a, bad, v, b)],
        "v": [lambda: LowRankUpdate(u, bad), lambda: baseline_solve(a, u, bad, b)],
        "fresh b": [lambda: solve_updated(base, upd, ws, bad)],
        "bs": [lambda: solve_many(base, upd, ws, bad)],
        "c": [lambda: ata_solve(base, bad), lambda: base_lstsq(base, a @ bad)],
    }[name]
    for call in calls:
        with pytest.raises(TypeError, match=f"^{name.split()[-1]} must be real, got dtype complex128$"):
            call()


def test_workspace_arrays_frozen():
    _, base, upd, ws = _solve(A32, B32, U32, V32)
    with pytest.raises(ValueError):
        ws.z[0, 0] = 1.0
    with pytest.raises(ValueError):
        ws.cap[0, 0] = 1.0


# -------------------------------------------------------------- solve_many

def test_solve_many_single_column_bitwise():
    # A block column takes the base solve even when it equals the bound b,
    # so it matches solve_updated to roundoff and itself bitwise.
    out, base, upd, ws = _solve(A32, B32, U32, V32)
    got = solve_many(base, upd, ws, B32[:, None])
    assert np.linalg.norm(got[:, 0] - out.x) <= 1e-13 * np.linalg.norm(out.x)
    assert np.array_equal(solve_many(base, upd, ws, B32[:, None]), got)


def test_solve_many_duplicate_rhs():
    _, base, upd, ws = _solve(A32, B32, U32, V32)
    got = solve_many(base, upd, ws, np.column_stack([B32, B32]))
    assert np.array_equal(got[:, 0], got[:, 1])


def test_solve_many_matches_baseline():
    rng = np.random.default_rng(21)
    a, b, u, v, base, ws = draw_instance(rng, 500, 50, 3)
    upd = LowRankUpdate(u, v)
    bs = rng.standard_normal((500, 4))
    got = solve_many(base, upd, ws, bs)
    for j in range(4):
        x1 = baseline_solve(a, u, v, bs[:, j])
        assert np.linalg.norm(got[:, j] - x1) <= 1e-10 * np.linalg.norm(x1)


def test_solve_many_bitwise_equals_solve_updated():
    # Within roundoff of solve_updated column by column, and the same bits
    # from one call to the next.
    rng = np.random.default_rng(22)
    a, b, u, v, base, ws = draw_instance(rng, 40, 10, 2)
    upd = LowRankUpdate(u, v)
    bs = rng.standard_normal((40, 5))
    got = solve_many(base, upd, ws, bs)
    for j in range(5):
        x = solve_updated(base, upd, ws, bs[:, j]).x
        assert np.linalg.norm(got[:, j] - x) <= 1e-13 * np.linalg.norm(x)
    assert np.array_equal(solve_many(base, upd, ws, bs), got)


def test_solve_many_runs_one_base_solve_per_block(monkeypatch):
    rng = np.random.default_rng(27)
    a, b, u, v, base, ws = draw_instance(rng, 40, 10, 2)
    upd = LowRankUpdate(u, v)
    calls = []

    real = woodbury._csne

    def counting_csne(a, rinv, c):
        calls.append(np.shape(c))
        return real(a, rinv, c)

    monkeypatch.setattr(woodbury, "_csne", counting_csne)
    solve_many(base, upd, ws, rng.standard_normal((40, 5)))
    assert calls == [(40, 5)]


def test_solve_many_rejects_empty():
    _, base, upd, ws = _solve(A32, B32, U32, V32)
    with pytest.raises(DimensionMismatch):
        solve_many(base, upd, ws, np.zeros((3, 0)))


# ---------------------------------------------------- pinv_update_explicit

def test_pinv_update_zero_case():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((10, 4))
    got = pinv_update_explicit(a, np.zeros((10, 2)), rng.standard_normal((4, 2)))
    np.testing.assert_allclose(got, pinv_oracle(a), atol=1e-12)


def test_pinv_update_square_rank_one():
    # For square a the formula collapses to the classic inverse update:
    # (I + u v.T)^{-1} = I - u v.T when v.T u = 0.
    got = pinv_update_explicit(np.eye(2), np.array([[1.0], [0.0]]),
                               np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(got, np.array([[1.0, -1.0], [0.0, 1.0]]), atol=1e-14)


def test_pinv_update_matches_direct_pseudoinverse():
    rng = np.random.default_rng(24)
    a, b, u, v, base, ws = draw_instance(rng, 12, 5, 2)
    got = pinv_update_explicit(a, u, v)
    want = pinv_oracle(a + u @ v.T)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_pinv_update_difference_has_rank_at_most_2r():
    rng = np.random.default_rng(25)
    for a, b, u, v, base, ws in draw_family(rng, 10, m_range=(8, 30), r_cap=3):
        r = u.shape[1]
        diff = pinv_update_explicit(a, u, v) - pinv_oracle(a)
        assert numerical_rank(diff, 1e-8) <= 2 * r


# ------------------------------------------------------------ baseline_solve

def test_baseline_zero_update_equals_base():
    rng = np.random.default_rng(26)
    a = rng.standard_normal((18, 6))
    b = rng.standard_normal(18)
    x = baseline_solve(a, np.zeros((18, 1)), np.zeros((6, 1)), b)
    np.testing.assert_allclose(x, prepare(a, b).x0, rtol=1e-13, atol=1e-15)


def test_baseline_hand_checked():
    np.testing.assert_allclose(baseline_solve(A32, U32, V32, B32), X32, atol=1e-14)


def test_baseline_matches_explicit_q_reference():
    rng = np.random.default_rng(35)
    for m, n, r in [(200, 30, 3), (31, 30, 2), (30, 30, 1), (50, 1, 1)]:
        a = rng.standard_normal((m, n)) + 3.0 * np.eye(m, n)
        u = 0.1 * rng.standard_normal((m, r))
        v = rng.standard_normal((n, r))
        b = rng.standard_normal(m)
        ref = _explicit_q_solve(a + u @ v.T, b)
        x = baseline_solve(a, u, v, b)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_baseline_residual_certificate():
    rng = np.random.default_rng(27)
    a, b, u, v, base, ws = draw_instance(rng, 35, 9, 3)
    x = baseline_solve(a, u, v, b)
    ahat_norm = np.linalg.norm(a + u @ v.T)
    assert (updated_normal_residual(a, u, v, x, b)
            <= 1e-10 * ahat_norm**2 * (np.linalg.norm(x) + np.linalg.norm(b) / ahat_norm))


def test_baseline_detects_rank_drop():
    rng = np.random.default_rng(28)
    a, u, v = rank_drop_instance(rng, 14, 6, r=2)
    with pytest.raises(RankDeficient, match=r"^a \+ u v\.T of shape \(14, 6\)"):
        baseline_solve(a, u, v, np.ones(14))


@pytest.mark.parametrize("u_shape,v_shape", [
    ((20,), (5, 2)),      # u not 2-D
    ((20, 2), (5, 2, 1)),  # v not 2-D
    ((21, 2), (5, 2)),    # u does not conform with a
    ((20, 2), (4, 2)),    # v does not conform with a
    ((20, 2), (5, 3)),    # u and v differ in r
    ((20, 6), (5, 6)),    # r > n
])
def test_baseline_rejects_bad_update_shape(u_shape, v_shape):
    rng = np.random.default_rng(31)
    with pytest.raises(DimensionMismatch):
        baseline_solve(rng.standard_normal((20, 5)), rng.standard_normal(u_shape),
                       rng.standard_normal(v_shape), rng.standard_normal(20))


@pytest.mark.parametrize("fn", ["baseline_solve", "prepare", "prepare_6000x300",
                                "prepare_ill_conditioned"])
def test_factorization_holds_one_buffer(fn):
    # tracemalloc sees numpy's buffers. Householder QR factors [. | b] in
    # one (n + 1) x m buffer; baseline_solve writes a + u v.T straight into
    # it, with no m x n temporaries of its own. prepare's cholesky_rinv
    # makes no such buffer: its one n x n array is the Gram matrix, which
    # it overwrites with R and then R^{-1}, beside at most a quarter-size
    # block at a time (the recursive Cholesky's trailing update or the
    # inversion's product; its triangular solve's product is an eighth),
    # so it peaks near 1.25 n^2 doubles at large n. LAPACK's own copies
    # are not traced; test_cholesky_rinv_hands_lapack_leaf_blocks_only
    # keeps them leaf-sized.
    # The CSNE x0 after it holds R^{-1} and length-m vectors, which weigh
    # 0.3 n^2 each at 3000 x 100 and 0.07 n^2 at 6000 x 300. When it
    # declines, Householder QR drops its buffer before it inverts R, so R
    # and that inversion's n x n arrays never sit beside it.
    rng = np.random.default_rng(37)
    m, n = {"prepare_6000x300": (6000, 300),
            "prepare_ill_conditioned": (6000, 200)}.get(fn, (3000, 100))
    a = rng.standard_normal((m, n))
    u = rng.standard_normal((m, 10))
    v = rng.standard_normal((n, 10))
    b = rng.standard_normal(m)
    ill = _graded(rng, m, n, 1e10)[0]
    call = {"baseline_solve": lambda: baseline_solve(a, u, v, b),
            "prepare": lambda: prepare(a, b),
            "prepare_6000x300": lambda: prepare(a, b),
            "prepare_ill_conditioned": lambda: prepare(ill, b)}[fn]
    buffer = (n + 1) * m * 8
    bound = {"baseline_solve": 1.25 * buffer,
             "prepare": 8 * 2.25 * n * n,
             "prepare_6000x300": 8 * 2.25 * n * n,
             "prepare_ill_conditioned": buffer + 2 * n * n * 8}[fn]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_prepare_inverts_once_when_certified_twice_when_declined(monkeypatch):
    # Certified, cholesky_rinv inverts its R in place and prepare takes x0
    # by CSNE through that inverse. Declined past its certificate (at cond
    # 1e6 the Cholesky factorization succeeds and kappa^2 eps is far above
    # TAU), it has inverted its R, and Householder QR inverts its own. Both
    # run kernels._invert_upper, which at n = 40 < TRIANGULAR_LEAF is one
    # call per inversion, with no recursion.
    calls = []
    real = kernels._invert_upper

    def counting(r, out):
        calls.append(r.shape)
        real(r, out)

    monkeypatch.setattr(kernels, "_invert_upper", counting)
    rng = np.random.default_rng(45)
    b = rng.standard_normal(400)
    householder = _counting_householder_qr(monkeypatch)
    prepare(rng.standard_normal((400, 40)), b)
    assert calls == [(40, 40)] and not householder
    calls.clear()
    prepare(_graded(rng, 400, 40, 1e6)[0], b)
    assert calls == [(40, 40)] * 2 and len(householder) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["a", "u", "v", "b"])
def test_baseline_rejects_non_finite_input(name, bad):
    rng = np.random.default_rng(30)
    args = {"a": rng.standard_normal((20, 5)), "u": rng.standard_normal((20, 2)),
            "v": rng.standard_normal((5, 2)), "b": rng.standard_normal(20)}
    args[name].flat[3] = bad
    # A non-finite a shows in the factor, which names a + u v.T.
    with pytest.raises(NonFiniteValue,
                       match=r"a \+ u v\.T" if name == "a" else f"{name} contains"):
        baseline_solve(**args)


@pytest.mark.filterwarnings("error")
def test_baseline_overflowing_update_raises_without_warning():
    # Finite u and v whose product u v.T overflows.
    rng = np.random.default_rng(43)
    a = rng.standard_normal((20, 5))
    u = 1e200 * rng.standard_normal((20, 2))
    v = 1e200 * rng.standard_normal((5, 2))
    with pytest.raises(NonFiniteValue, match=r"a \+ u v\.T"):
        baseline_solve(a, u, v, rng.standard_normal(20))


def test_rank_drop_instances_raise_singular_capacitance():
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = int(rng.integers(6, 30))
        n = int(rng.integers(2, m // 2 + 2))
        r = int(rng.integers(1, min(3, n) + 1))
        a, u, v = rank_drop_instance(rng, m, n, r)
        base = prepare(a, np.zeros(m))
        with pytest.raises(SingularCapacitance):
            build_workspace(base, LowRankUpdate(u, v))
