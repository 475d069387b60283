"""Fast least squares for low-rank-updated matrices.

Prepare a tall full-rank base matrix once, then solve
``min ||b - (a + u v.T) x||_2`` for many updates and right-hand sides at a
fraction of the cost of refactoring; ``updated_normal_residual`` certifies
any solution. The package exports the solver of ``lrlsq.woodbury`` and
the errors of ``lrlsq.errors``. The timing harness (``lrlsq.bench``), the
file formats (``lrlsq.mio``) and the command line (``lrlsq.cli``) are
imported from their modules.
"""

from .errors import (
    DimensionMismatch,
    LrlsqError,
    MalformedHeader,
    NonFiniteValue,
    RankDeficient,
    SingularCapacitance,
)
from .woodbury import (
    LowRankUpdate,
    PreparedBase,
    SolveOutcome,
    UpdateWorkspace,
    ata_solve,
    baseline_solve,
    build_workspace,
    prepare,
    solve_many,
    solve_updated,
    updated_normal_residual,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "LowRankUpdate",
    "LrlsqError",
    "MalformedHeader",
    "NonFiniteValue",
    "PreparedBase",
    "RankDeficient",
    "SingularCapacitance",
    "SolveOutcome",
    "UpdateWorkspace",
    "ata_solve",
    "baseline_solve",
    "build_workspace",
    "prepare",
    "solve_many",
    "solve_updated",
    "updated_normal_residual",
]
