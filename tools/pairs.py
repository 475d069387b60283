"""Paired benchmark runs of a parent checkout against this one.

    python tools/pairs.py --base DIR --workload W [--pairs 10] [--seconds 40] [--seed 1]

DIR is a source checkout of the parent commit, for example a
``git worktree`` of it. Each pair runs the command that ``BENCHMARK.json``
declares, ``benchmark/run.py``, once in DIR and once in the checkout that
holds this script, one after the other; the side that goes first
alternates from pair to pair, so a drift of the host over the session
falls on both sides alike. A run that exits non-zero, is not correct, has
a failed operation or reports a null metric stops the comparison (exit 1).

For every end-to-end metric of ``BENCHMARK.json`` it prints the parent's
median and quartiles, the change's median, the number of pairs in which
the change is better, whether that shows a gain, and whether the change's
median is worse than the parent's by more than the metric's bound, a
fraction of the parent's median. A gain is shown when the change is
better in at least nine tenths of the pairs, rounded up, with a tie
counting for neither side, and its median is better than the parent's
by more than the parent's quartile spread, q3 - q1.

A run is stalled when its ``setup_s``, ``op_ms_p50`` or ``op_ms_p95`` is
more than three times that metric's median over every run of the
session, both sides; a host that stalls for a while can make one side
look many times slower. The summary names the pairs with a stalled run
and leaves them out of the wins, the medians and the gain test, and it
shows no gain when more than one pair in ten stalled. It reads
``benchmark/`` and writes nothing there: the runs are untraced and
write no bytecode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
STALL_METRICS = ("setup_s", "op_ms_p50", "op_ms_p95")
STALL_FACTOR = 3.0


def parse_args(argv):
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True,
                   help="source checkout of the parent commit")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        p.error("--pairs must be at least 1 and --seconds above 0")
    if not (args.base / "benchmark" / "run.py").is_file():
        p.error(f"{args.base} holds no benchmark/run.py")
    return args, spec


def run_once(checkout: Path, command: list, args) -> dict:
    """One untraced run in checkout; returns its metric values by name."""
    cmd = [*command, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if result["correct"] is not True or result["failed"] != 0 or None in values.values():
        raise SystemExit(f"run in {checkout} is not clean: {result}")
    return values


def quartiles(xs: list) -> tuple:
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def stalled_pairs(metrics: list, parent: list, change: list) -> list:
    """Indices of the pairs in which either run is stalled (see the module
    docstring), judged on those of ``STALL_METRICS`` that metrics names."""
    names = [m["name"] for m in metrics if m["name"] in STALL_METRICS]
    limit = {name: STALL_FACTOR * statistics.median(run[name] for run in parent + change)
             for name in names}
    return [i for i, pair in enumerate(zip(parent, change))
            if any(run[name] > limit[name] for run in pair for name in names)]


def report(metrics: list, parent: list, change: list) -> None:
    """Print one line per end-to-end metric for runs paired by index, over
    the pairs that did not stall, then the pairs that did."""
    stalled = stalled_pairs(metrics, parent, change)
    kept = [i for i in range(len(parent)) if i not in stalled]
    print(f"{'metric':12} {'parent p50':>11} {'parent q1-q3':>21} {'change p50':>11} "
          f"{'wins':>6} {'gain':>5}  worse than bound")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pv = [parent[i][name] for i in kept]
        cv = [change[i][name] for i in kept]
        p50, c50 = statistics.median(pv), statistics.median(cv)
        q1, q3 = quartiles(pv)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        gain = p50 - c50 if lower else c50 - p50
        shown = (wins >= math.ceil(9 * len(pv) / 10) and gain > q3 - q1
                 and 10 * len(stalled) <= len(parent))
        worse = (c50 - p50 if lower else p50 - c50) / p50
        verdict = f"{'yes' if worse > m['bound'] else 'no'} ({worse:+.1%} against {m['bound']:.0%})"
        print(f"{name:12} {p50:11.4g} {q1:10.4g}-{q3:<10.4g} {c50:11.4g} "
              f"{wins:3}/{len(pv):<2} {'shown' if shown else 'no':>5}  {verdict}")
    print(f"stalled pairs: {', '.join(str(i + 1) for i in stalled) or 'none'} "
          f"of {len(parent)}")


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    sides = {"parent": args.base.resolve(), "change": HEAD}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], spec["command"], args))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", flush=True)
    print(f"workload {args.workload}: {args.pairs} pairs of {args.seconds:g} s, seed {args.seed}")
    report(spec["end_to_end"], runs["parent"], runs["change"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
