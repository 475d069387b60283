"""Fast least squares for low-rank-updated matrices.

Prepare a tall full-rank base matrix once, then solve
``min ||b - (a + u v.T) x||_2`` for many updates and right-hand sides at a
fraction of the cost of refactoring. See ``lrlsq.woodbury`` for the solver,
``lrlsq.bench`` for the timing harness, and ``lrlsq.cli`` for the command
line.
"""

from .bench import BenchConfig, gen_gaussian, run_benchmark, stream_id
from .errors import (
    DimensionMismatch,
    LrlsqError,
    MalformedHeader,
    NonFiniteValue,
    RankDeficient,
    SingularCapacitance,
    SingularMatrix,
)
from .kernels import solve_upper_triangular
from .mio import BenchRecord, CSV_HEADER, read_bench_csv, read_matrix, write_bench_csv, write_matrix
from .woodbury import (
    LowRankUpdate,
    PreparedBase,
    SolveOutcome,
    UpdateWorkspace,
    ata_solve,
    baseline_solve,
    build_workspace,
    pinv_update_explicit,
    prepare,
    solve_many,
    solve_updated,
    updated_normal_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "CSV_HEADER",
    "DimensionMismatch",
    "LowRankUpdate",
    "LrlsqError",
    "MalformedHeader",
    "NonFiniteValue",
    "PreparedBase",
    "RankDeficient",
    "SingularCapacitance",
    "SingularMatrix",
    "SolveOutcome",
    "UpdateWorkspace",
    "ata_solve",
    "baseline_solve",
    "build_workspace",
    "gen_gaussian",
    "pinv_update_explicit",
    "prepare",
    "read_bench_csv",
    "read_matrix",
    "run_benchmark",
    "solve_many",
    "solve_updated",
    "solve_upper_triangular",
    "stream_id",
    "updated_normal_residual",
    "write_bench_csv",
    "write_matrix",
]
