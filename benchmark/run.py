#!/usr/bin/env python3
"""Run one lrlsq benchmark workload and print its metrics.

    python3 benchmark/run.py --workload update-stream --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 40

Run from the root of a source checkout; the library is imported from its
``src`` directory. The workload's BLAS thread count is pinned before numpy
is imported, and the run refuses to start (exit 3) when numpy's or scipy's
OpenBLAS pool reports another count, or when the checkout has no source.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
and the spans are written to ``benchmark/traces/``. The lines before it
give the environment record, sample counts, failures by type and derived
figures. ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from specs import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402  (numpy-free)


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {text}")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"seconds must be > 0, got {text}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=_seconds, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in a child process of its own, one after another."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "lrlsq" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 3
    w = WORKLOADS[args.workload]
    threads = w.blas_threads()
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    sys.path.insert(0, str(SRC))

    import envinfo
    import workloads

    try:
        pools = envinfo.blas_pools()
    except RuntimeError as err:
        print(f"error: cannot read the BLAS pools back: {err}", file=sys.stderr)
        return 3
    wrong = {k: p["threads"] for k, p in pools.items() if p["threads"] != threads}
    if wrong:
        print(f"error: workload {w.name} pins {threads} BLAS threads, "
              f"but the pools report {wrong}", file=sys.stderr)
        return 3

    env = envinfo.record(pools)
    env["floor"] = envinfo.floor_label(w.m * w.n * 8, env["l3_bytes"])
    print(f"workload {w.name}: m={w.m} n={w.n} r={w.r} "
          f"blas_threads={threads} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))

    outcome, tracer = workloads.measure(w, args.seed, args.seconds, bool(args.trace))

    units = PER_LAYER if args.trace else END_TO_END
    print(f"samples {outcome.samples}  attempted {outcome.attempted}  "
          f"failed {outcome.failed} {dict(outcome.failures)}")
    for name, value in outcome.derived.items():
        print(f"derived {name} = {value:.6g}")
    for name, unit in units.items():
        print(f"{name} = {outcome.metrics[name]} {unit}")
    if tracer is not None:
        out = HERE / "traces" / f"{w.name}-seed{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        tracer.write(out, {"workload": w.name, "seed": args.seed, "env": env,
                           "derived": outcome.derived})
        print(f"spans written to {out.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": outcome.metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
