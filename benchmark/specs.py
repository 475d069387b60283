"""Workload shapes and metric names of the lrlsq benchmark.

Kept free of numpy so that ``run.py`` can read a workload's BLAS thread
count and pin it before numpy is first imported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single caller waits for each operation.

    threads is the BLAS thread count of both OpenBLAS pools, 0 meaning one
    per core available to the process. route names the operation:
    "update" (fresh update, build_workspace + solve_updated) or "pair"
    (baseline_solve and, separately, the update path on the same update).
    """

    name: str
    m: int
    n: int
    r: int
    threads: int
    route: str

    def blas_threads(self) -> int:
        return self.threads or len(os.sched_getaffinity(0))


WORKLOADS = {w.name: w for w in (
    # A is 160 MB, 4.8x a 32 MiB L3: the workspace's A'U pass streams
    # from memory, and both default-sized BLAS pools compete for the cores.
    Workload("update-stream", 20000, 1000, 10, 0, "update"),
    # A is 32 MB, about L3 size; one thread, as on the paper's desk.
    Workload("scratch-vs-update", 20000, 200, 10, 1, "pair"),
)}

# Printed with --trace 0. "op" is the update path: build_workspace +
# solve_updated on one fresh update.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Printed with --trace 1, derived from spans around calls into the library.
PER_LAYER = {
    "woodbury.prepare.ms": "ms",
    "kernels.qr_thin.ms": "ms",
    "woodbury.baseline_solve.ms": "ms",
    "woodbury.build_workspace.ms": "ms",
    "woodbury.build_workspace.floor_x": "x",
    "woodbury.build_workspace.gbps_computed": "GB/s",
    "woodbury.ata_solve.ms": "ms",
    "kernels.lu_factor_checked.ms": "ms",
    "woodbury.solve_updated.ms": "ms",
    "woodbury.solve_many.ms_per_rhs": "ms",
    "woodbury.solve_many.floor_x": "x",
    "cgls.normal_cg_solve.ms": "ms",
    "cgls.steps": "count",
    "mem.pass_a.ms": "ms",
    "mem.gbps": "GB/s",
    "trace.overhead_pct": "%",
}

# Not used while the benchmark was tuned; keep it for validating claims.
HELD_OUT_SEED = 8675309
