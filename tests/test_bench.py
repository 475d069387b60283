import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlsq.bench import (
    ROLE_A,
    ROLE_B,
    ROLE_U,
    ROLE_V,
    BenchConfig,
    gen_gaussian,
    run_benchmark,
    stream_id,
)
from lrlsq.errors import RankDeficient
from lrlsq.mio import write_bench_csv
from oracles import read_bench_csv


# ------------------------------------------------------------ gen_gaussian

@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       stream=st.integers(min_value=0, max_value=2**48))
def test_gen_is_deterministic(seed, stream):
    first = gen_gaussian(seed, stream, 4, 3)
    second = gen_gaussian(seed, stream, 4, 3)
    assert np.array_equal(first, second)


def test_gen_streams_are_separated():
    a = gen_gaussian(7, stream_id(10, 2, 0, ROLE_A), 5, 5)
    b = gen_gaussian(7, stream_id(10, 2, 0, ROLE_B), 5, 5)
    c = gen_gaussian(8, stream_id(10, 2, 0, ROLE_A), 5, 5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_statistics():
    draws = gen_gaussian(123, 0, 1_000_000, 1).ravel()
    assert abs(draws.mean()) <= 5.0 / np.sqrt(draws.size)
    assert abs(draws.var() - 1.0) <= 0.01


def test_gen_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_gaussian(1, 0, 0, 3)
    with pytest.raises(ValueError):
        gen_gaussian(-1, 0, 2, 2)
    with pytest.raises(ValueError):
        gen_gaussian(2**64, 0, 2, 2)


def test_stream_id_is_injective_on_grid():
    grid = itertools.product((100, 500), (10, 30), (0, 1, 9), (ROLE_A, ROLE_B, ROLE_U, ROLE_V))
    ids = [stream_id(n, r, rep, role) for n, r, rep, role in grid]
    assert len(ids) == len(set(ids))


def test_stream_id_bounds():
    with pytest.raises(ValueError):
        stream_id(10, 2, 0, 4)
    with pytest.raises(ValueError):
        stream_id(10, 2, 2**16, 0)
    with pytest.raises(ValueError):
        stream_id(10, 2**16, 0, 0)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        stream_id(-1, 2, 0, 0)


# ------------------------------------------------------------- BenchConfig

def test_config_validation():
    good = BenchConfig(m=50, n_list=[10, 20], r_list=[2], reps=1, seed=0)
    assert good.n_list == (10, 20)
    with pytest.raises(ValueError):
        BenchConfig(m=15, n_list=[10, 20], r_list=[2], reps=1, seed=0)
    with pytest.raises(ValueError):
        BenchConfig(m=50, n_list=[10], r_list=[12], reps=1, seed=0)
    with pytest.raises(ValueError):
        BenchConfig(m=50, n_list=[10], r_list=[2], reps=0, seed=0)
    with pytest.raises(ValueError):
        BenchConfig(m=50, n_list=[], r_list=[2], reps=1, seed=0)
    # every (n, r) pair of the grid must be an instance, not only the largest
    with pytest.raises(ValueError, match=r"min\(n_list\) >= max\(r_list\)"):
        BenchConfig(m=40, n_list=[5, 3], r_list=[4], reps=1, seed=0)
    with pytest.raises(ValueError, match=r"min\(r_list\) >= 1"):
        BenchConfig(m=50, n_list=[10], r_list=[0, 2], reps=1, seed=0)
    # stream_id holds rep in 16 bits
    assert BenchConfig(m=50, n_list=[10], r_list=[2], reps=2**16, seed=0).reps == 2**16
    with pytest.raises(ValueError, match="reps"):
        BenchConfig(m=50, n_list=[10], r_list=[2], reps=2**16 + 1, seed=0)
    # ... and r in 16 bits
    big = 2**16 - 1
    assert BenchConfig(m=big, n_list=[big], r_list=[big], reps=1, seed=0).r_list == (big,)
    with pytest.raises(ValueError, match="r_list entries must be below 65536"):
        BenchConfig(m=70000, n_list=[70000], r_list=[2**16], reps=1, seed=0)
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        BenchConfig(m=50, n_list=[10], r_list=[2], reps=1, seed=2**64)


# ----------------------------------------------------------- run_benchmark

def test_tiny_benchmark_records(tmp_path):
    out = tmp_path / "bench.csv"
    cfg = BenchConfig(m=60, n_list=[8, 12], r_list=[2], reps=2, seed=99)
    records = run_benchmark(cfg)
    write_bench_csv(out, records)
    assert len(records) == 4
    assert [(rec.n, rec.rep) for rec in records] == [(8, 0), (8, 1), (12, 0), (12, 1)]
    for rec in records:
        assert rec.m == 60 and rec.r == 2 and rec.seed == 99
        assert rec.rel_forward_error <= 1e-12
    assert read_bench_csv(out) == records


def test_benchmark_is_deterministic_modulo_timings():
    cfg = BenchConfig(m=50, n_list=[10], r_list=[3], reps=3, seed=7)
    first = run_benchmark(cfg)
    second = run_benchmark(cfg)
    assert [rec.rel_forward_error for rec in first] == \
           [rec.rel_forward_error for rec in second]


def test_benchmark_failure_carries_context(monkeypatch):
    import lrlsq.bench as bench_mod

    def explode(*args, **kwargs):
        raise RankDeficient("synthetic failure")

    monkeypatch.setattr(bench_mod, "baseline_solve", explode)
    cfg = BenchConfig(m=30, n_list=[5], r_list=[1], reps=1, seed=1)
    with pytest.raises(RankDeficient, match=r"m=30, n=5, r=1.*warm-up") as info:
        run_benchmark(cfg)
    cause = info.value.__cause__
    assert isinstance(cause, RankDeficient) and str(cause) == "synthetic failure"
