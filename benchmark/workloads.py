"""Inputs, closed loop, checks and metrics of the benchmark workloads.

Every input comes from the library's named PCG64 streams
(``lrlsq.bench.gen_gaussian`` / ``stream_id``) and is generated before the
timed loop; the library sees only arrays. Each operation is timed on its
own, and its answer is checked afterwards, outside the timed interval:

* every route: the relative normal-equations certificate
  ``||Ah'(Ah x - b)|| / (s (s ||x|| + ||b||))`` with ``Ah = A + U V'`` and
  ``s = ||A||_F + ||U||_F ||V||_F >= ||Ah||_F``, at most CERT_TOL;
* the "pair" route also: forward error of the update path against
  ``baseline_solve``, at most FWD_TOL.

A miss or an ``LrlsqError`` counts as a failed operation, by type, and the
loop goes on. Failed operations add no timing sample.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Optional

import numpy as np

from lrlsq import cgls, kernels, woodbury
from lrlsq.bench import ROLE_A, ROLE_B, ROLE_U, ROLE_V, gen_gaussian, stream_id
from lrlsq.errors import LrlsqError

from specs import Workload
from tracing import NO_TRACE, Tracer

CERT_TOL = 1e-10
FWD_TOL = 1e-10
SETUP_REPS = 5      # at least this many prepare calls, setup_s is their median,
SETUP_SECONDS = 1.0  # and more until they add up to this
POOL = 16           # distinct updates, cycled by the loop
RHS_K = 16          # right-hand sides of the traced solve_many block
WARMUP = 2          # checked operations before the timed loop starts
REPLAYS = 3         # traced replays of the costly library calls
CHEAP_REPLAYS = 20  # traced replays of the cheap ones
PASSES = 30         # gemv passes over A for the memory floor


@dataclass(frozen=True)
class Inputs:
    a: np.ndarray
    b: np.ndarray
    updates: tuple  # of woodbury.LowRankUpdate
    block: np.ndarray  # m x RHS_K right-hand sides


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The workload's arrays, a pure function of (workload shape, seed)."""
    m, n, r = w.m, w.n, w.r
    a = gen_gaussian(seed, stream_id(n, r, 0, ROLE_A), m, n)
    b = gen_gaussian(seed, stream_id(n, r, 0, ROLE_B), m, 1).ravel()
    updates = tuple(
        woodbury.LowRankUpdate(
            gen_gaussian(seed, stream_id(n, r, i, ROLE_U), m, r),
            gen_gaussian(seed, stream_id(n, r, i, ROLE_V), n, r),
        )
        for i in range(1, POOL + 1)
    )
    block = gen_gaussian(seed, stream_id(n, r, 1, ROLE_B), m, RHS_K)
    return Inputs(a, b, updates, block)


@dataclass
class Run:
    w: Workload
    inp: Inputs
    base: woodbury.PreparedBase
    a_fro: float

    def miss(self, upd, x, b) -> Optional[str]:
        """Name of the failed check on solution x, or None when it passes."""
        ne = woodbury.updated_normal_residual(self.inp.a, upd.u, upd.v, x, b)
        s = self.a_fro + float(np.linalg.norm(upd.u) * np.linalg.norm(upd.v))
        scale = s * (s * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
        return None if ne <= CERT_TOL * scale else "CertificateMiss"


def _update_path(run: Run, upd, tr):
    """build_workspace + solve_updated; returns (ms, x)."""
    t0 = perf_counter_ns()
    ws = tr.call("woodbury.build_workspace", woodbury.build_workspace, run.base, upd)
    out = tr.call("woodbury.solve_updated", woodbury.solve_updated, run.base, upd, ws, run.inp.b)
    return (perf_counter_ns() - t0) / 1e6, out.x


# A route runs operation i and returns (op_ms, scratch_ms or None, miss).

def _route_update(run: Run, i: int, tr):
    upd = run.inp.updates[i % POOL]
    op_ms, x = _update_path(run, upd, tr)
    return op_ms, None, run.miss(upd, x, run.inp.b)


def _route_pair(run: Run, i: int, tr):
    a, b = run.inp.a, run.inp.b
    upd = run.inp.updates[i % POOL]
    t0 = perf_counter_ns()
    x_ref = tr.call("woodbury.baseline_solve", woodbury.baseline_solve, a, upd.u, upd.v, b)
    scratch_ms = (perf_counter_ns() - t0) / 1e6
    op_ms, x = _update_path(run, upd, tr)
    miss = run.miss(upd, x, b) or run.miss(upd, x_ref, b)
    if miss is None and np.linalg.norm(x - x_ref) > FWD_TOL * np.linalg.norm(x_ref):
        miss = "ForwardErrorMiss"
    return op_ms, scratch_ms, miss


ROUTES = {"update": _route_update, "pair": _route_pair}


@dataclass
class LoopStats:
    op_ms: list = field(default_factory=list)      # untraced operations
    traced_ms: list = field(default_factory=list)  # traced operations
    scratch_ms: list = field(default_factory=list)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)


def setup(w: Workload, inp: Inputs, tr) -> tuple[Run, list]:
    """Prepare the base repeatedly; returns the run and each time in s."""
    times, base = [], None
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        base = None  # release the previous factorization first
        t0 = perf_counter()
        base = tr.call("woodbury.prepare", woodbury.prepare, inp.a, inp.b)
        times.append(perf_counter() - t0)
    return Run(w, inp, base, float(np.linalg.norm(inp.a))), times


def run_loop(run: Run, seconds: float, tracer: Optional[Tracer]) -> LoopStats:
    """Closed loop for ``seconds`` after WARMUP operations.

    With a tracer, even-numbered operations are traced and odd ones are not,
    so the two interleave and their medians give the tracing overhead.
    """
    route = ROUTES[run.w.route]
    st = LoopStats()
    i, deadline = 0, None
    while deadline is None or perf_counter() < deadline:
        if i == WARMUP:
            deadline = perf_counter() + seconds
        traced = tracer is not None and i % 2 == 0
        tr = tracer if traced else NO_TRACE
        st.attempted += 1
        try:
            op_ms, scratch_ms, miss = tr.call("bench.op", route, run, i, tr)
        except LrlsqError as err:
            op_ms, scratch_ms, miss = None, None, type(err).__name__
        if miss is not None:
            st.failures[miss] += 1
        elif i >= WARMUP:
            (st.traced_ms if traced else st.op_ms).append(op_ms)
            if scratch_ms is not None:
                st.scratch_ms.append(scratch_ms)
        i += 1
    return st


def replay(run: Run, tr: Tracer) -> int:
    """Trace each layer's public calls on the workload's own data.

    Returns the total CG step count of ``normal_cg_solve`` on the 2r
    workspace columns, an exact count taken from its return value.
    """
    a, b = run.inp.a, run.inp.b
    upd = run.inp.updates[0]
    for _ in range(REPLAYS):
        tr.call("kernels.qr_thin", kernels.qr_thin, a)
        tr.call("woodbury.baseline_solve", woodbury.baseline_solve, a, upd.u, upd.v, b)
        ws = tr.call("woodbury.build_workspace", woodbury.build_workspace, run.base, upd)
        tr.call("woodbury.solve_many", woodbury.solve_many, run.base, upd, ws, run.inp.block)
        _, steps = tr.call("cgls.normal_cg_solve", cgls.normal_cg_solve, a, ws.x_blk)
    cap = np.eye(2 * ws.rank) + ws.yt @ ws.z
    for _ in range(CHEAP_REPLAYS):
        tr.call("woodbury.ata_solve", woodbury.ata_solve, run.base, ws.x_blk)
        tr.call("kernels.lu_factor_checked", kernels.lu_factor_checked, cap)
        tr.call("woodbury.solve_updated", woodbury.solve_updated, run.base, upd, ws, b)
    y = np.ones(a.shape[0])
    for _ in range(PASSES):
        tr.call("mem.pass_a", np.dot, a.T, y)
    return int(steps.sum())


@dataclass
class Outcome:
    attempted: int
    failures: Counter
    metrics: dict   # name -> value; None when no operation succeeded
    derived: dict   # printed, not gated
    samples: int

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _p95(xs):
    return float(np.percentile(xs, 95))


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[Outcome, Optional[Tracer]]:
    """Run one workload; end-to-end metrics untraced, per-layer ones traced."""
    inp = make_inputs(w, seed)
    tracer = Tracer() if trace else None
    run, setup_times = setup(w, inp, tracer or NO_TRACE)
    st = run_loop(run, seconds, tracer)
    ops = st.op_ms
    p50 = statistics.median(ops) if ops else None
    derived = {}
    if st.scratch_ms and ops:
        derived["scratch_ms_p50"] = statistics.median(st.scratch_ms)
        derived["scratch_ms_p95"] = _p95(st.scratch_ms)
        derived["speedup_p50"] = derived["scratch_ms_p50"] / p50
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_ms_p50": p50,
            "op_ms_p95": _p95(ops) if ops else None,
            "ops_per_s": 1e3 * len(ops) / sum(ops) if ops else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return Outcome(st.attempted, st.failures, metrics, derived, len(ops)), None

    steps = replay(run, tracer)
    med = tracer.median_ms
    pass_ms = med("mem.pass_a")
    bw_ms = med("woodbury.build_workspace")
    per_rhs_ms = med("woodbury.solve_many") / RHS_K
    overhead = None
    if ops and st.traced_ms:
        overhead = 100.0 * (statistics.median(st.traced_ms) / p50 - 1.0)
        derived["op_ms_p50_untraced"] = p50
        derived["build_workspace_share_of_op_p50"] = bw_ms / p50
        derived["speedup_p50_vs_baseline_solve"] = med("woodbury.baseline_solve") / p50
    # The update's 2r solves through the CG backend, against refactoring.
    derived["cgls_over_baseline_solve"] = (
        med("cgls.normal_cg_solve") / med("woodbury.baseline_solve"))
    metrics = {
        "woodbury.prepare.ms": med("woodbury.prepare"),
        "kernels.qr_thin.ms": med("kernels.qr_thin"),
        "woodbury.baseline_solve.ms": med("woodbury.baseline_solve"),
        "woodbury.build_workspace.ms": bw_ms,
        "woodbury.build_workspace.floor_x": bw_ms / pass_ms,
        "woodbury.build_workspace.gbps_computed": inp.a.nbytes / bw_ms / 1e6,
        "woodbury.ata_solve.ms": med("woodbury.ata_solve"),
        "kernels.lu_factor_checked.ms": med("kernels.lu_factor_checked"),
        "woodbury.solve_updated.ms": med("woodbury.solve_updated"),
        "woodbury.solve_many.ms_per_rhs": per_rhs_ms,
        "woodbury.solve_many.floor_x": per_rhs_ms / pass_ms,
        "cgls.normal_cg_solve.ms": med("cgls.normal_cg_solve"),
        "cgls.steps": steps,
        "mem.pass_a.ms": pass_ms,
        "mem.gbps": inp.a.nbytes / pass_ms / 1e6,
        "trace.overhead_pct": overhead,
    }
    samples = len(ops) + len(st.traced_ms)
    return Outcome(st.attempted, st.failures, metrics, derived, samples), tracer
