"""tools/pairs.py: the summary of paired runs and its refusal of unclean runs."""

import importlib.util
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "op_ms_p50", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def _report_lines(parent, change, capsys):
    pairs.report(METRICS, parent, change)
    return dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines()[1:])


def test_report_counts_wins_by_direction(capsys):
    parent = [{"op_ms_p50": 10.0, "ops_per_s": 100.0}] * 3
    change = [{"op_ms_p50": t, "ops_per_s": q} for t, q in [(9.0, 90.0), (11.0, 110.0), (9.5, 120.0)]]
    lines = _report_lines(parent, change, capsys)
    assert " 2/3 " in lines["op_ms_p50"] and lines["op_ms_p50"].endswith("no (-5.0% against 25%)")
    assert " 2/3 " in lines["ops_per_s"] and lines["ops_per_s"].endswith("no (-10.0% against 25%)")


def test_report_flags_a_metric_worse_than_its_bound(capsys):
    parent = [{"op_ms_p50": 10.0, "ops_per_s": 100.0}]
    change = [{"op_ms_p50": 13.0, "ops_per_s": 70.0}]
    lines = _report_lines(parent, change, capsys)
    assert lines["op_ms_p50"].endswith("yes (+30.0% against 25%)")
    assert lines["ops_per_s"].endswith("yes (+30.0% against 25%)")


# Ten parent runs with op_ms_p50 from 10.0 to 11.8 ms, quartiles 10.45 and
# 11.35 ms, and ops_per_s from the same times.
_PARENT = [10.0 + 0.2 * i for i in range(10)]


def _runs(times):
    return [{"op_ms_p50": t, "ops_per_s": 1e3 / t} for t in times]


@pytest.mark.parametrize("shift, ties_and_losses, shown", [
    (-1.0, [], "shown"),        # better in 10/10, medians 1.0 apart
    (-1.0, [0.0, 3.0], "no"),   # a tie and a loss: better in 8/10
    (-0.5, [], "no"),           # better in 10/10, but within the spread
], ids=["gain", "too-few-wins", "within-spread"])
def test_report_shows_a_gain_only_on_wins_and_spread(capsys, shift, ties_and_losses, shown):
    change = [t + shift for t in _PARENT]
    for i, delta in enumerate(ties_and_losses):
        change[i] = _PARENT[i] + delta
    lines = _report_lines(_runs(_PARENT), _runs(change), capsys)
    for name in ("op_ms_p50", "ops_per_s"):
        assert re.search(rf" {10 - len(ties_and_losses)}/10 +{shown}  no ", lines[name]), lines[name]


def test_report_leaves_out_a_stalled_pair(capsys):
    # One parent run of ten stalled at 48.9x the session's median: that
    # pair counts in neither the wins nor the medians, and the gain over
    # the other nine still shows.
    parent, change = list(_PARENT), [t - 1.5 for t in _PARENT]
    parent[3] = 489.0
    lines = _report_lines(_runs(parent), _runs(change), capsys)
    assert re.match(r"11 +10.4-11.4 +9.5 +9/9 +shown  no ", lines["op_ms_p50"]), lines["op_ms_p50"]
    assert lines["stalled"] == "pairs: 4 of 10"


def test_report_shows_no_gain_when_a_stalled_host_reads_as_one(capsys):
    # A parent run read 489 ms against the workload's usual 17.8 ms, and
    # the change won the other four pairs by a hair; counted as it stands,
    # that read as a gain. One stalled pair in five is more than one in ten.
    parent = _runs([17.8, 489.0, 17.9, 17.85, 17.95])
    change = _runs([17.7, 17.75, 17.8, 17.7, 17.85])
    lines = _report_lines(parent, change, capsys)
    for name in ("op_ms_p50", "ops_per_s"):
        assert re.search(r" 4/4 +no  no ", lines[name]), lines[name]
    assert lines["stalled"] == "pairs: 2 of 5"


def test_stalled_pairs_on_either_side_and_any_time_metric():
    metrics = [{"name": n} for n in ("setup_s", "op_ms_p50", "op_ms_p95", "ops_per_s")]
    run = {"setup_s": 0.3, "op_ms_p50": 17.8, "op_ms_p95": 22.0, "ops_per_s": 50.0}
    parent, change = [dict(run) for _ in range(6)], [dict(run) for _ in range(6)]
    parent[1]["setup_s"] = 1.0      # 3.3x the median
    change[4]["op_ms_p95"] = 67.0   # 3.05x
    parent[5]["op_ms_p50"] = 53.0   # 2.98x: not stalled
    change[2]["ops_per_s"] = 1.0    # not a time metric
    assert pairs.stalled_pairs(metrics, parent, change) == [1, 4]


def test_quartiles_of_one_run_are_that_run():
    assert pairs.quartiles([4.0]) == (4.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)


@pytest.mark.parametrize("result", [
    {"correct": False, "failed": 0, "metrics": {"setup_s": {"value": 1.0}}},
    {"correct": True, "failed": 2, "metrics": {"setup_s": {"value": 1.0}}},
    {"correct": True, "failed": 0, "metrics": {"setup_s": {"value": None}}},
])
def test_run_once_refuses_an_unclean_run(tmp_path, result):
    (tmp_path / "benchmark").mkdir()
    (tmp_path / "benchmark" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    args = SimpleNamespace(workload="w", seed=1, seconds=1.0)
    with pytest.raises(SystemExit, match="not clean"):
        pairs.run_once(tmp_path, [sys.executable, "benchmark/run.py"], args)
