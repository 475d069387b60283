"""Command-line front end: one-shot updated solves and the benchmark sweep.

Subcommands::

    lrlsq solve --a A.mtx --b b.mtx --u U.mtx --v V.mtx --out x.mtx
    lrlsq bench --m M --n-list a,b,c --r-list a,b --reps R --seed S
                --out results.csv

Exit codes:
    0  success
    1  unexpected failure (I/O errors and the like)
    2  usage error
    3  malformed or inconsistent input file
    4  rank-deficient base or updated matrix
    5  rank-dropping update (singular capacitance)
"""

from __future__ import annotations

import argparse
import statistics
import sys

import numpy as np

from .bench import BenchConfig, run_benchmark
from .errors import (
    DimensionMismatch,
    MalformedHeader,
    NonFiniteValue,
    RankDeficient,
    SingularCapacitance,
)
from .mio import read_matrix, write_bench_csv, write_matrix
from .woodbury import LowRankUpdate, build_workspace, prepare, solve_updated

_ERROR_CODES = (
    (RankDeficient, 4),
    (SingularCapacitance, 5),
    (MalformedHeader, 3),
    (NonFiniteValue, 3),
    (DimensionMismatch, 3),
    (ValueError, 3),
    (OSError, 1),
)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrlsq",
        description="Least squares solves for low-rank-updated matrices.",
        epilog="Exit codes: 0 success, 2 usage, 3 bad input file, "
               "4 rank-deficient, 5 rank-dropping update, "
               "1 other errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve",
        help="solve min ||b - (A + U V') x|| from MatrixMarket files",
    )
    solve.add_argument("--a", required=True, help="base matrix A (m x n)")
    solve.add_argument("--b", required=True, help="right-hand side b (m x 1)")
    solve.add_argument("--u", required=True, help="update factor U (m x r)")
    solve.add_argument("--v", required=True, help="update factor V (n x r)")
    solve.add_argument("--out", required=True, help="output path for x (n x 1)")

    bench = sub.add_parser(
        "bench",
        help="run the scratch-vs-update timing sweep and write CSV",
    )
    bench.add_argument("--m", type=int, required=True, help="rows of the base matrix")
    bench.add_argument("--n-list", type=_int_list, required=True,
                       help="comma-separated column counts, e.g. 200,500,1000")
    bench.add_argument("--r-list", type=_int_list, required=True,
                       help="comma-separated update ranks, e.g. 10,20,30")
    bench.add_argument("--reps", type=int, required=True, help="timed repetitions")
    bench.add_argument("--seed", type=_uint64, required=True, help="master seed")
    bench.add_argument("--out", required=True, help="output CSV path")
    return parser


def _read_vector(path, name: str) -> np.ndarray:
    mat = read_matrix(path)
    if mat.shape[1] == 1:
        return mat[:, 0]
    if mat.shape[0] == 1:
        return mat[0, :]
    raise DimensionMismatch(
        f"{name} must be a single row or column, got shape {mat.shape}"
    )


def _run_solve(args) -> int:
    a = read_matrix(args.a)
    b = _read_vector(args.b, "b")
    u = read_matrix(args.u)
    v = read_matrix(args.v)
    base = prepare(a, b)
    upd = LowRankUpdate(u, v)
    ws = build_workspace(base, upd)
    outcome = solve_updated(base, upd, ws, b)
    write_matrix(args.out, outcome.x.reshape(-1, 1))
    return 0


def _run_bench(args) -> int:
    cfg = BenchConfig(
        m=args.m, n_list=args.n_list, r_list=args.r_list,
        reps=args.reps, seed=args.seed,
    )
    # An --out that cannot be written fails here, not after the sweep.
    open(args.out, "a").close()
    records = run_benchmark(cfg)
    write_bench_csv(args.out, records)
    print(f"{'n':>6} {'r':>4} {'median speedup':>16} {'mean ms scratch':>16} "
          f"{'mean ms update':>15} {'max rel err':>12}")
    for n in cfg.n_list:
        for r in cfg.r_list:
            group = [rec for rec in records if rec.n == n and rec.r == r]
            med = statistics.median(rec.speedup for rec in group)
            scratch_ms = statistics.mean(rec.t_scratch_ns for rec in group) / 1e6
            update_ms = statistics.mean(rec.t_woodbury_ns for rec in group) / 1e6
            worst = max(rec.rel_forward_error for rec in group)
            print(f"{n:>6} {r:>4} {med:>15.1f}x {scratch_ms:>16.1f} "
                  f"{update_ms:>15.2f} {worst:>12.2e}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _run_solve(args)
        return _run_bench(args)
    except tuple(cls for cls, _ in _ERROR_CODES) as err:
        code = next(code for cls, code in _ERROR_CODES if isinstance(err, cls))
        print(f"error: {err}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
