"""Test-scale reference routines the library itself does not need."""

import numpy as np

from lrlsq.kernels import qr_thin, solve_upper_triangular


def pinv_oracle(a) -> np.ndarray:
    """Explicit pseudoinverse of a tall full-column-rank matrix.

    Computed as R^{-1} Q.T from the thin QR factors, which is the unique
    Moore-Penrose pseudoinverse for full column rank. Materializes an n x m
    matrix, so this is a test-scale reference, not a solver building block.
    """
    f = qr_thin(a)
    return solve_upper_triangular(f.r, f.q.T)


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
