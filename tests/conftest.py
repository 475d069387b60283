"""Shared instance generators for the numerical test suites."""

import numpy as np

from lrlsq.errors import LrlsqError
from lrlsq.woodbury import LowRankUpdate, build_workspace, prepare


# Floor on the capacitance reciprocal condition estimate for test instances.
# The update identity computed in doubles deviates by roughly eps / rcond, so
# instances below ~1e-6 cannot meet the 1e-10 tolerances regardless of
# implementation; the family resamples them as non-generic.
CAP_RCOND_FLOOR = 1e-6


def draw_instance(rng, m, n, r, cond_cap=1e3, rcond_floor=CAP_RCOND_FLOOR):
    """Gaussian (a, b, u, v, base, ws) with benign conditioning.

    Resamples until cond(a) and cond(a + u v.T) stay under cond_cap and the
    capacitance rcond stays above rcond_floor, so tolerance checks see the
    generic well-posed case.
    """
    while True:
        a = rng.standard_normal((m, n))
        if np.linalg.cond(a) > cond_cap:
            continue
        u = rng.standard_normal((m, r))
        v = rng.standard_normal((n, r))
        if np.linalg.cond(a + u @ v.T) > cond_cap:
            continue
        b = rng.standard_normal(m)
        try:
            base = prepare(a, b)
            ws = build_workspace(base, LowRankUpdate(u, v))
        except LrlsqError:
            continue
        if ws.cap_rcond < rcond_floor:
            continue
        return a, b, u, v, base, ws


def draw_family(rng, count, m_range=(5, 40), r_cap=4, cond_cap=1e3):
    """The standard random-instance family: m in m_range, n in [2, m],
    r in [1, min(r_cap, n)]."""
    for _ in range(count):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        n = int(rng.integers(2, m + 1))
        r = int(rng.integers(1, min(r_cap, n) + 1))
        yield draw_instance(rng, m, n, r, cond_cap)


def rank_drop_instance(rng, m, n, r=1):
    """Update that zeroes r columns of the base exactly in floating point,
    so a + u v.T is rank-deficient by construction."""
    a = rng.standard_normal((m, n))
    cols = rng.choice(n, size=r, replace=False)
    u = -a[:, cols]
    v = np.zeros((n, r))
    v[cols, np.arange(r)] = 1.0
    return a, u, v
