"""Seeded benchmark: from-scratch QR solves versus the update path.

For every (n, r) configuration the harness generates a Gaussian base matrix
and right-hand side, prepares the base once, then for each repetition draws
a fresh Gaussian update and times both routes:

* scratch: assemble ``a + u v.T``, thin-QR it, back-substitute; everything
  downstream of the update, factorization included;
* update: build the workspace and solve, with base preparation excluded
  (its reuse is the whole premise).

One untimed warm-up runs per configuration before the timed repetitions to
keep first-touch effects out of rep 0. Per-rep rows are recorded rather
than pre-averaged; averaging is an analysis step. The loop is strictly
sequential and spawns no threads; whether the underlying BLAS uses threads
is an environment matter (pin with OPENBLAS_NUM_THREADS=1 for strict
single-thread timings).

Every generated matrix comes from its own named PCG64 stream, so runs with
equal configs reproduce bit-identical data and solutions regardless of
execution order; only timings vary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import LrlsqError
from .mio import BenchRecord
from .woodbury import LowRankUpdate, baseline_solve, build_workspace, prepare, solve_updated

# Stream-id roles, packed into the low bits of the id.
ROLE_A, ROLE_B, ROLE_U, ROLE_V = 0, 1, 2, 3

_REP_BITS = 16
_R_BITS = 16
_ROLE_BITS = 2


def stream_id(n: int, r: int, rep: int, role: int) -> int:
    """Pack (n, r, rep, role) into one stream id.

    Layout, low to high: role (2 bits), rep (16 bits), r (16 bits), then n.
    The base matrix and right-hand side use rep slot 0; per-rep updates use
    their repetition index.
    """
    if not 0 <= role < 2**_ROLE_BITS:
        raise ValueError(f"role must be in [0, 4), got {role}")
    if not 0 <= rep < 2**_REP_BITS:
        raise ValueError(f"rep must fit in {_REP_BITS} bits, got {rep}")
    if not 0 <= r < 2**_R_BITS:
        raise ValueError(f"r must fit in {_R_BITS} bits, got {r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return (((n << _R_BITS | r) << _REP_BITS) | rep) << _ROLE_BITS | role


def gen_gaussian(seed: int, stream: int, rows: int, cols: int) -> np.ndarray:
    """Deterministic standard-normal (rows, cols) matrix.

    Drawn from PCG64 seeded with SeedSequence entropy (seed, stream) via
    numpy's ziggurat ``standard_normal``. Identical arguments give
    bit-identical output on every platform for a given numpy release line
    (generator bit streams are version-stable by numpy policy).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"shape must be positive, got ({rows}, {cols})")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
    return rng.standard_normal((rows, cols))


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark sweep: one base height m, grids of widths and update ranks."""

    m: int
    n_list: tuple[int, ...]
    r_list: tuple[int, ...]
    reps: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "r_list", tuple(int(r) for r in self.r_list))
        if not self.n_list or not self.r_list:
            raise ValueError("n_list and r_list must be nonempty")
        # Every (n, r) pair of the grid must be a valid instance, not only
        # the largest of each.
        if not (self.m >= max(self.n_list) and min(self.n_list) >= max(self.r_list)
                and min(self.r_list) >= 1):
            raise ValueError(
                f"require m >= max(n_list), min(n_list) >= max(r_list) and "
                f"min(r_list) >= 1, got m={self.m}, n_list={self.n_list}, "
                f"r_list={self.r_list}"
            )
        # stream_id holds rep in _REP_BITS bits and r in _R_BITS.
        if not 1 <= self.reps <= 2**_REP_BITS:
            raise ValueError(f"reps must be in [1, {2**_REP_BITS}], got {self.reps}")
        if not max(self.r_list) < 2**_R_BITS:
            raise ValueError(f"r_list entries must be below {2**_R_BITS}, got {max(self.r_list)}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _instance_data(cfg: BenchConfig, n: int, r: int, rep: int):
    u = gen_gaussian(cfg.seed, stream_id(n, r, rep, ROLE_U), cfg.m, r)
    v = gen_gaussian(cfg.seed, stream_id(n, r, rep, ROLE_V), n, r)
    return u, v


def _timed_pair(a, b, base, u, v):
    """Time both routes on one update; returns (t_scratch, t_update, rel_err)."""
    upd = LowRankUpdate(u, v)
    t0 = time.perf_counter_ns()
    x1 = baseline_solve(a, u, v, b)
    t1 = time.perf_counter_ns()
    ws = build_workspace(base, upd)
    x2 = solve_updated(base, upd, ws, b).x
    t2 = time.perf_counter_ns()
    rel = float(np.linalg.norm(x2 - x1) / np.linalg.norm(x1))
    return max(t1 - t0, 1), max(t2 - t1, 1), rel


def run_benchmark(cfg: BenchConfig) -> list[BenchRecord]:
    """Run the sweep; returns per-rep records (``write_bench_csv`` stores them).

    Any solver error aborts the run, re-raised as the same type with the
    offending (n, r, rep) and stage attached and the original as its cause.
    """
    records: list[BenchRecord] = []
    for n in cfg.n_list:
        for r in cfg.r_list:
            a = gen_gaussian(cfg.seed, stream_id(n, r, 0, ROLE_A), cfg.m, n)
            b = gen_gaussian(cfg.seed, stream_id(n, r, 0, ROLE_B), cfg.m, 1).ravel()
            stage = "prepare"
            try:
                base = prepare(a, b)
                stage = "warm-up"
                u, v = _instance_data(cfg, n, r, 0)
                _timed_pair(a, b, base, u, v)  # warm-up, result discarded
                for rep in range(cfg.reps):
                    stage = f"rep {rep}"
                    u, v = _instance_data(cfg, n, r, rep)
                    t_scratch, t_upd, rel = _timed_pair(a, b, base, u, v)
                    records.append(BenchRecord(
                        m=cfg.m, n=n, r=r, rep=rep, seed=cfg.seed,
                        t_scratch_ns=t_scratch, t_woodbury_ns=t_upd,
                        rel_forward_error=rel,
                    ))
            except LrlsqError as err:
                wrapped = type(err)(
                    f"benchmark instance m={cfg.m}, n={n}, r={r} failed at "
                    f"{stage}: {err}"
                )
                raise wrapped from err
    return records
