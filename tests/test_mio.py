import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lrlsq.errors import DimensionMismatch, MalformedHeader, NonFiniteValue
from lrlsq.mio import (
    BenchRecord,
    CSV_HEADER,
    MM_BANNER,
    read_matrix,
    write_bench_csv,
    write_matrix,
)
from oracles import read_bench_csv

finite64 = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------ matrix files

def test_read_minimal_column(tmp_path):
    path = _write(tmp_path, f"{MM_BANNER}\n2 1\n1.0\n2.0\n")
    np.testing.assert_array_equal(read_matrix(path), np.array([[1.0], [2.0]]))


def test_read_skips_comments_and_blank_lines(tmp_path):
    path = _write(tmp_path, f"{MM_BANNER}\n% generated fixture\n\n2 2\n1\n2\n% noise\n3\n4\n")
    np.testing.assert_array_equal(read_matrix(path),
                                  np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_read_values_split_across_lines(tmp_path):
    # Two values share a line; a comment and a blank line sit between values.
    path = _write(tmp_path, f"{MM_BANNER}\n2 3\n1 2\n3\n% mid-values comment\n4\n\n5\n6\n")
    np.testing.assert_array_equal(read_matrix(path),
                                  np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))


def test_values_are_column_major(tmp_path):
    mat = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    path = tmp_path / "m.mtx"
    write_matrix(path, mat)
    lines = path.read_text().splitlines()
    assert lines[0] == MM_BANNER
    assert lines[1] == "2 3"
    assert [float(tok) for tok in lines[2:]] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    np.testing.assert_array_equal(read_matrix(path), mat)


def test_write_vector_as_column(tmp_path):
    path = tmp_path / "v.mtx"
    write_matrix(path, np.array([1.5, -2.5]))
    got = read_matrix(path)
    assert got.shape == (2, 1)
    np.testing.assert_array_equal(got[:, 0], [1.5, -2.5])


@pytest.mark.parametrize("banner", [
    "%%MatrixMarket matrix coordinate real general",
    "%%MatrixMarket matrix array complex general",
    "%%NotMatrixMarket matrix array real general",
    "garbage",
    "",
])
def test_bad_banner(tmp_path, banner):
    path = _write(tmp_path, f"{banner}\n1 1\n1.0\n")
    with pytest.raises(MalformedHeader):
        read_matrix(path)


@pytest.mark.parametrize("size_line", ["2", "2 2 2", "two 2", "0 3", "-1 2"])
def test_bad_size_line(tmp_path, size_line):
    path = _write(tmp_path, f"{MM_BANNER}\n{size_line}\n1.0\n")
    with pytest.raises(MalformedHeader):
        read_matrix(path)


def test_missing_size_line(tmp_path):
    path = _write(tmp_path, f"{MM_BANNER}\n% only comments\n")
    with pytest.raises(MalformedHeader):
        read_matrix(path)


def test_value_count_mismatch(tmp_path):
    path = _write(tmp_path, f"{MM_BANNER}\n3 1\n1.0\n2.0\n")
    with pytest.raises(DimensionMismatch):
        read_matrix(path)
    path = _write(tmp_path, f"{MM_BANNER}\n1 1\n1.0\n2.0\n")
    with pytest.raises(DimensionMismatch):
        read_matrix(path)


def test_unparseable_value(tmp_path):
    path = _write(tmp_path, f"{MM_BANNER}\n2 1\n1.0\nxyz\n")
    with pytest.raises(MalformedHeader):
        read_matrix(path)


def test_non_finite_value(tmp_path):
    path = _write(tmp_path, f"{MM_BANNER}\n2 1\nnan\n1.0\n")
    with pytest.raises(NonFiniteValue):
        read_matrix(path)
    path = _write(tmp_path, f"{MM_BANNER}\n2 1\ninf\n1.0\n")
    with pytest.raises(NonFiniteValue):
        read_matrix(path)


def test_write_refuses_non_finite(tmp_path):
    with pytest.raises(NonFiniteValue):
        write_matrix(tmp_path / "bad.mtx", np.array([[np.nan]]))


def test_write_refuses_bad_shape(tmp_path):
    for shape in [(2, 2, 2), (0, 3)]:
        path = tmp_path / "bad.mtx"
        with pytest.raises(DimensionMismatch, match=re.escape(f"cannot write array of shape {shape}")):
            write_matrix(path, np.ones(shape))
        assert not path.exists()


def test_write_refuses_complex(tmp_path):
    # Casting to float64 would drop the imaginary part and write [1, 3].
    path = tmp_path / "complex.mtx"
    with pytest.raises(TypeError, match="complex"):
        write_matrix(path, np.array([1 + 2j, 3]))
    assert not path.exists()


def test_round_trip_fixed_cases(tmp_path):
    for name, mat in [
        ("identity", np.eye(2)),
        ("zero", np.zeros((1, 1))),
        ("tiny", np.array([[1e-308, -1e308], [0.3, 7.0 / 3.0]])),
    ]:
        path = tmp_path / f"{name}.mtx"
        write_matrix(path, mat)
        np.testing.assert_array_equal(read_matrix(path), mat)


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mat=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=finite64))
def test_round_trip_is_value_exact(tmp_path, mat):
    path = tmp_path / "roundtrip.mtx"
    write_matrix(path, mat)
    assert np.array_equal(read_matrix(path), mat)


# -------------------------------------------------------------- bench CSV

def _record(**overrides):
    base = dict(m=100, n=10, r=2, rep=0, seed=42,
                t_scratch_ns=2000, t_woodbury_ns=400,
                rel_forward_error=1e-15)
    base.update(overrides)
    return BenchRecord(**base)


def test_csv_header_is_frozen():
    assert CSV_HEADER == "m,n,r,rep,seed,t_scratch_ns,t_woodbury_ns,speedup,rel_forward_error"


def test_csv_single_record_two_lines(tmp_path):
    path = tmp_path / "bench.csv"
    write_bench_csv(path, [_record()])
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER


def test_csv_empty_raises(tmp_path):
    with pytest.raises(ValueError):
        write_bench_csv(tmp_path / "bench.csv", [])


def test_csv_round_trip(tmp_path):
    records = [
        _record(rep=0),
        _record(rep=1, t_scratch_ns=12345678901, t_woodbury_ns=7,
                rel_forward_error=2.5e-13),
        _record(rep=2, seed=2**64 - 1),
    ]
    path = tmp_path / "bench.csv"
    write_bench_csv(path, records)
    assert read_bench_csv(path) == records


def test_csv_writes_numpy_scalars_as_plain_numbers(tmp_path):
    # numpy 2's repr of a numpy float is "np.float64(2.5)".
    rec = BenchRecord(m=5, n=3, r=1, rep=0, seed=1, t_scratch_ns=np.int64(10),
                      t_woodbury_ns=np.int64(4), rel_forward_error=np.float64(1e-13))
    path = tmp_path / "bench.csv"
    write_bench_csv(path, [rec])
    assert path.read_text().splitlines()[1] == "5,3,1,0,1,10,4,2.5,1e-13"
    assert read_bench_csv(path) == [rec]


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(MalformedHeader):
        read_bench_csv(path)


def test_csv_rejects_inconsistent_speedup(tmp_path):
    assert _record().speedup == 5.0  # derived from the timings
    path = tmp_path / "bench.csv"
    write_bench_csv(path, [_record()])
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    fields[7] = "7.0"
    path.write_text(f"{header}\n{','.join(fields)}\n")
    with pytest.raises(MalformedHeader, match="speedup"):
        read_bench_csv(path)


def test_record_validation():
    with pytest.raises(ValueError):
        _record(rel_forward_error=-1.0)
    with pytest.raises(ValueError):
        _record(seed=-1)
    with pytest.raises(ValueError):
        _record(t_woodbury_ns=0)


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    t_scratch=st.integers(min_value=1, max_value=2**62),
    t_upd=st.integers(min_value=1, max_value=2**62),
    err=st.floats(min_value=0, max_value=1e-6),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_csv_round_trip_property(tmp_path, t_scratch, t_upd, err, seed):
    rec = BenchRecord(m=7, n=3, r=1, rep=0, seed=seed,
                      t_scratch_ns=t_scratch, t_woodbury_ns=t_upd,
                      rel_forward_error=err)
    path = tmp_path / "one.csv"
    write_bench_csv(path, [rec])
    assert read_bench_csv(path) == [rec]
