"""Test-scale reference routines the library itself does not need: the
pseudoinverse references, a numerical rank, and the reader of benchmark
CSV files."""

import numpy as np

from lrlsq.errors import MalformedHeader
from lrlsq.kernels import qr_thin
from lrlsq.mio import CSV_HEADER, BenchRecord
from lrlsq.woodbury import LowRankUpdate, build_workspace, prepare, solve_many


def pinv_oracle(a) -> np.ndarray:
    """Explicit pseudoinverse of a tall full-column-rank matrix.

    Computed as R^{-1} Q.T from the thin QR factors, which is the unique
    Moore-Penrose pseudoinverse for full column rank. Materializes an n x m
    matrix, so this is a test-scale reference, not a solver building block.
    """
    f = qr_thin(a)
    # Partial pivoting never swaps rows of a triangular r, so this is back
    # substitution; numpy's, as the numpy-only suite imports this module.
    return np.linalg.solve(f.r, f.q.T)


def pinv_update_explicit(a, u, v) -> np.ndarray:
    """Explicit n x m pseudoinverse of ``a + u @ v.T`` via the update path.

    Column j of the pseudoinverse is the updated least squares solution for
    the unit vector ``e_j``, so this is one ``solve_many`` call on the m x m
    identity. It materializes dense m x m and n x m matrices, so it is
    meant for validation at modest sizes (roughly m <= 500), not for
    solving; ``pinv_oracle`` is its reference.

    Raises RankDeficient (base rank-deficient) or SingularCapacitance
    (update kills full rank).
    """
    upd = LowRankUpdate(u, v)
    base = prepare(a, np.zeros(upd.u.shape[0]))
    ws = build_workspace(base, upd)
    return solve_many(base, upd, ws, np.eye(base.m))


def numerical_rank(a, tol: float) -> int:
    """Number of singular values exceeding ``tol`` times the largest one."""
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def read_bench_csv(path) -> list[BenchRecord]:
    """Parse a file produced by ``lrlsq.mio.write_bench_csv`` back into records.

    Raises MalformedHeader on a foreign header, a bad row, or a speedup
    column that is not the ratio of the row's timings.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise MalformedHeader(
                f"expected CSV header {CSV_HEADER!r}, got {header!r}"
            )
        records = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 9:
                raise MalformedHeader(f"expected 9 CSV fields, got {len(parts)}")
            try:
                rec = BenchRecord(
                    m=int(parts[0]), n=int(parts[1]), r=int(parts[2]),
                    rep=int(parts[3]), seed=int(parts[4]),
                    t_scratch_ns=int(parts[5]), t_woodbury_ns=int(parts[6]),
                    rel_forward_error=float(parts[8]),
                )
                speedup = float(parts[7])
            except ValueError as err:
                raise MalformedHeader(f"bad CSV row {line!r}: {err}") from None
            # The writer stores repr(speedup), which reads back exactly.
            if speedup != rec.speedup:
                raise MalformedHeader(
                    f"CSV row {line!r}: speedup {speedup!r} is not "
                    f"t_scratch_ns / t_woodbury_ns = {rec.speedup!r}"
                )
            records.append(rec)
    return records
