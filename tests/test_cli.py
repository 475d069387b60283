import subprocess
import sys

import numpy as np
import pytest

from lrlsq.cli import cli_main
from lrlsq.mio import read_matrix, write_matrix
from oracles import read_bench_csv

A32 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
B32 = np.array([3.0, 4.0, 5.0])
U32 = np.array([[0.0], [0.0], [1.0]])
V32 = np.array([[1.0], [0.0]])


@pytest.fixture
def worked_instance(tmp_path):
    paths = {}
    for name, mat in [("a", A32), ("b", B32), ("u", U32), ("v", V32)]:
        paths[name] = str(tmp_path / f"{name}.mtx")
        write_matrix(paths[name], mat)
    paths["out"] = str(tmp_path / "x.mtx")
    return paths


def _solve_args(paths, *extra):
    return ["solve", "--a", paths["a"], "--b", paths["b"], "--u", paths["u"],
            "--v", paths["v"], "--out", paths["out"], *extra]


def test_solve_worked_instance(worked_instance):
    assert cli_main(_solve_args(worked_instance)) == 0
    x = read_matrix(worked_instance["out"])
    np.testing.assert_allclose(x, [[4.0], [4.0]], atol=1e-14)


def test_missing_flag_is_usage_error(capsys):
    rc = cli_main(["solve", "--a", "a.mtx"])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert cli_main(["transmogrify"]) == 2


def test_backend_flag_is_usage_error(worked_instance, capsys):
    # The one base solver is the factored one; the CG backend is gone, and
    # prepare computes the base solution itself, so there is no --x0.
    assert cli_main(_solve_args(worked_instance, "--backend", "cg")) == 2
    assert "--backend" in capsys.readouterr().err
    assert cli_main(_solve_args(worked_instance, "--x0", worked_instance["b"])) == 2
    assert "--x0" in capsys.readouterr().err


def test_rank_deficient_maps_to_exit_4(worked_instance, tmp_path, capsys):
    bad = str(tmp_path / "bad_a.mtx")
    write_matrix(bad, np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))
    worked_instance["a"] = bad
    rc = cli_main(_solve_args(worked_instance))
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_rank_dropping_update_maps_to_exit_5(worked_instance, tmp_path, capsys):
    u_path = str(tmp_path / "u_drop.mtx")
    write_matrix(u_path, np.array([[-1.0], [0.0], [0.0]]))
    worked_instance["u"] = u_path
    rc = cli_main(_solve_args(worked_instance))
    assert rc == 5
    assert "error:" in capsys.readouterr().err


def test_malformed_file_maps_to_exit_3(worked_instance, tmp_path, capsys):
    bad = tmp_path / "mangled.mtx"
    bad.write_text("%%Gibberish\n1 1\n1.0\n")
    worked_instance["b"] = str(bad)
    rc = cli_main(_solve_args(worked_instance))
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_file_maps_to_exit_3(worked_instance, tmp_path, capsys, value):
    bad = tmp_path / "non_finite_u.mtx"
    bad.write_text(f"%%MatrixMarket matrix array real general\n3 1\n0\n{value}\n1\n")
    worked_instance["u"] = str(bad)
    assert cli_main(_solve_args(worked_instance)) == 3
    assert "NaN or infinite" in capsys.readouterr().err


def test_wrong_shape_b_maps_to_exit_3(worked_instance, tmp_path):
    wide = str(tmp_path / "wide_b.mtx")
    write_matrix(wide, np.zeros((2, 2)))
    worked_instance["b"] = wide
    assert cli_main(_solve_args(worked_instance)) == 3


def test_missing_file_maps_to_exit_1(worked_instance):
    worked_instance["a"] = "/nonexistent/a.mtx"
    assert cli_main(_solve_args(worked_instance)) == 1


def test_bench_subcommand_round_trip(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    rc = cli_main(["bench", "--m", "60", "--n-list", "8,12", "--r-list", "2",
                   "--reps", "2", "--seed", "11", "--out", out])
    assert rc == 0
    records = read_bench_csv(out)
    assert len(records) == 4
    stdout = capsys.readouterr().out
    header, *rows = stdout.splitlines()
    assert header.split()[2:] == ["median", "speedup", "mean", "ms", "scratch",
                                  "mean", "ms", "update", "max", "rel", "err"]
    assert [row.split()[:2] for row in rows] == [["8", "2"], ["12", "2"]]
    for row, n in zip(rows, (8, 12)):
        group = [rec for rec in records if rec.n == n]
        scratch_ms = float(row.split()[3])
        update_ms = float(row.split()[4])
        assert scratch_ms == pytest.approx(
            sum(rec.t_scratch_ns for rec in group) / len(group) / 1e6, abs=0.05)
        assert update_ms == pytest.approx(
            sum(rec.t_woodbury_ns for rec in group) / len(group) / 1e6, abs=0.005)


def test_bench_rejects_inconsistent_grid(capsys):
    rc = cli_main(["bench", "--m", "10", "--n-list", "20", "--r-list", "2",
                   "--reps", "1", "--seed", "0", "--out", "x.csv"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_bench_rejects_grid_with_invalid_pair(tmp_path, capsys):
    # n = 3 < r = 4 fails before any instance is timed, and writes no CSV.
    out = tmp_path / "x.csv"
    rc = cli_main(["bench", "--m", "40", "--n-list", "5,3", "--r-list", "4",
                   "--reps", "1", "--seed", "0", "--out", str(out)])
    assert rc == 3
    assert "min(n_list) >= max(r_list)" in capsys.readouterr().err
    assert not out.exists()


def test_bench_bad_list_is_usage_error(capsys):
    rc = cli_main(["bench", "--m", "60", "--n-list", "8,potato", "--r-list", "2",
                   "--reps", "1", "--seed", "0", "--out", "x.csv"])
    assert rc == 2


def test_module_entry_point(worked_instance):
    proc = subprocess.run(
        [sys.executable, "-m", "lrlsq", *_solve_args(worked_instance)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert read_matrix(worked_instance["out"]).shape == (2, 1)
