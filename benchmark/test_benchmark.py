"""Self-tests of the benchmark harness; run with ``python -m pytest benchmark``.

In-process tests shrink each workload to a small shape, so they check the
harness's logic rather than its timings.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from lrlsq import woodbury  # noqa: E402
from lrlsq.errors import SingularCapacitance  # noqa: E402
from specs import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name):
    return replace(WORKLOADS[name], m=400, n=40, r=4)


def _flat(inp):
    arrays = [inp.a, inp.b, inp.block]
    for upd in inp.updates:
        arrays += [upd.u, upd.v]
    return arrays


def test_benchmark_json_names_the_specs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_bit_identical_inputs(name):
    w = small(name)
    first, again = _flat(workloads.make_inputs(w, 7)), _flat(workloads.make_inputs(w, 7))
    assert [x.tobytes() for x in first] == [x.tobytes() for x in again]
    other = _flat(workloads.make_inputs(w, 8))
    assert not any(np.array_equal(x, y) for x, y in zip(first, other))


def _perturbed(fn, rel):
    """fn with the first row of its solution moved by rel times its norm."""
    def shift(x):
        x = x.copy()
        x[0] += rel * np.linalg.norm(x)
        return x

    def wrong(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, woodbury.SolveOutcome):
            return replace(out, x=shift(out.x))
        return shift(out)
    return wrong


@pytest.mark.parametrize("name, target, rel, miss", [
    ("update-stream", "solve_updated", 1e-3, "CertificateMiss"),
    ("scratch-vs-update", "solve_updated", 1e-3, "CertificateMiss"),
    # Too small for the certificate, large enough for the forward error.
    ("scratch-vs-update", "baseline_solve", 1e-9, "ForwardErrorMiss"),
])
def test_wrong_solution_is_counted_as_failed(monkeypatch, name, target, rel, miss):
    monkeypatch.setattr(woodbury, target, _perturbed(getattr(woodbury, target), rel))
    outcome, _ = workloads.measure(small(name), 3, 0.2, trace=False)
    assert outcome.attempted > workloads.WARMUP
    assert dict(outcome.failures) == {miss: outcome.attempted}
    assert outcome.samples == 0


def test_library_error_is_counted_by_type_and_the_loop_continues(monkeypatch):
    real = woodbury.build_workspace
    calls = []

    def flaky(base, upd, *args):
        calls.append(1)
        if len(calls) % 2:
            raise SingularCapacitance("injected")
        return real(base, upd, *args)

    monkeypatch.setattr(woodbury, "build_workspace", flaky)
    outcome, _ = workloads.measure(small("update-stream"), 3, 0.2, trace=False)
    # Operations 0, 2, 4, ... fail; of the others, only operation 1 is warm-up.
    assert dict(outcome.failures) == {"SingularCapacitance": (outcome.attempted + 1) // 2}
    assert outcome.samples == outcome.attempted // 2 - 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_measured(name, trace):
    outcome, tracer = workloads.measure(small(name), 3, 0.2, trace=trace)
    assert outcome.failed == 0
    assert set(outcome.metrics) == set(PER_LAYER if trace else END_TO_END)
    for value in outcome.metrics.values():
        assert isinstance(value, (int, float)) and math.isfinite(value)
    assert (tracer is not None) == trace


@pytest.mark.parametrize("name, trace", [("scratch-vs-update", 0), ("scratch-vs-update", 1)])
def test_command_prints_every_metric_with_its_unit(name, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", name,
           "--seed", "5", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed
    }


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", "traces"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "scratch-vs-update",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_to_run_when_a_blas_pool_disagrees(monkeypatch, capsys):
    import envinfo
    import run

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # main overwrites it
    monkeypatch.setattr(envinfo, "blas_pools", lambda: {
        "numpy": {"library": "numpy-pool", "threads": 1, "config": ""},
        "scipy": {"library": "scipy-pool", "threads": 7, "config": ""},
    })
    code = run.main(["--workload", "scratch-vs-update", "--seed", "1", "--seconds", "1"])
    assert code == 3
    assert '"metrics"' not in capsys.readouterr().out
