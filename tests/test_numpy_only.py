"""The library runs with scipy unavailable: it imports numpy only."""

import subprocess
import sys
from pathlib import Path

import numpy as np

import lrlsq
from oracles import pinv_update_explicit
from lrlsq.cli import cli_main
from lrlsq.kernels import TRIANGULAR_LEAF, cholesky_qr
from lrlsq.mio import read_matrix, write_matrix
from lrlsq.woodbury import (
    LowRankUpdate,
    baseline_solve,
    build_workspace,
    prepare,
    solve_many,
    solve_updated,
)

# Imports lrlsq with scipy blocked, then runs _every_entry_point.
BLOCKED = """
import sys
sys.modules["scipy"] = None
sys.path[:0] = [{tests!r}, {src!r}]
from pathlib import Path
from test_numpy_only import _every_entry_point
_every_entry_point(Path({out!r}))
"""


def _every_entry_point(out: Path) -> None:
    """Run every solve path on one small instance; save the answers in
    ``out / "answers.npz"``."""
    rng = np.random.default_rng(3)
    m, n, r = 60, 8, 2
    a, b, u, v, bs = (rng.standard_normal(s) for s in [(m, n), m, (m, r), (n, r), (m, 3)])
    base = prepare(a, b)
    upd = LowRankUpdate(u, v)
    ws = build_workspace(base, upd)
    # n > TRIANGULAR_LEAF takes the recursive inverse of R; a graded base
    # of cond 1e10 fails CholeskyQR2's certificate and takes Householder.
    wide = prepare(rng.standard_normal((4 * TRIANGULAR_LEAF, TRIANGULAR_LEAF + 6)))
    graded = np.linalg.qr(rng.standard_normal((m, n)))[0] * np.geomspace(1.0, 1e-10, n)
    assert cholesky_qr(graded, b) is None
    graded = prepare(graded, b)
    for name, mat in [("a", a), ("b", b), ("u", u), ("v", v)]:
        write_matrix(str(out / f"{name}.mtx"), mat)
    args = ["solve", *(f"--{k}={out / k}.mtx" for k in "abuv"), f"--out={out / 'x'}.mtx"]
    assert cli_main(args) == 0
    np.savez(
        out / "answers.npz",
        bound_b=solve_updated(base, upd, ws, b).x,
        fresh_b=solve_updated(base, upd, ws, bs[:, 0]).x,
        block=solve_many(base, upd, ws, bs),
        baseline=baseline_solve(a, u, v, b),
        pinv=pinv_update_explicit(a, u, v),
        cap_rcond=ws.cap_rcond,
        wide_rinv=wide.rinv,
        graded_rinv=graded.rinv,
        graded_x0=graded.x0,
        cli=read_matrix(str(out / "x.mtx")),
    )


def test_every_entry_point_runs_without_scipy(tmp_path):
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    blocked.mkdir()
    here.mkdir()
    src = Path(lrlsq.__file__).parents[1]
    script = BLOCKED.format(tests=str(Path(__file__).parent), src=str(src), out=str(blocked))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    _every_entry_point(here)
    got, ref = np.load(blocked / "answers.npz"), np.load(here / "answers.npz")
    assert sorted(got.files) == sorted(ref.files)
    for name in ref.files:
        assert np.linalg.norm(got[name] - ref[name]) <= 1e-13 * np.linalg.norm(ref[name]), name
