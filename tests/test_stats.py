"""Tests for latency recording, counters, and result tables."""

import math
import os
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.latency import LatencyRecorder, mean, nearest_rank, percentile
from repro.stats.meters import Counter, WindowedRate
from repro.stats.results import Table, format_table


def test_percentiles_exact_on_known_data():
    rec = LatencyRecorder()
    for v in range(1, 101):
        rec.record(10.0, float(v))
    assert rec.p50() == pytest.approx(50.5)
    assert rec.p99() == pytest.approx(99.01)
    assert rec.mean() == pytest.approx(50.5)
    assert rec.max() == 100.0


def test_warmup_discards_samples():
    rec = LatencyRecorder(warmup_until=100.0)
    rec.record(50.0, 1.0)
    rec.record(150.0, 2.0)
    assert rec.count == 1
    assert rec.p50() == 2.0


def test_tagged_samples():
    rec = LatencyRecorder()
    rec.record(0.0, 10.0, tag="get")
    rec.record(0.0, 700.0, tag="scan")
    rec.record(0.0, 12.0, tag="get")
    assert rec.p50(tag="get") == 11.0
    assert rec.p50(tag="scan") == 700.0
    assert rec.tags() == ["get", "scan"]


def test_empty_recorder_is_nan():
    rec = LatencyRecorder()
    assert math.isnan(rec.p99())
    assert math.isnan(rec.mean())
    assert math.isnan(rec.p99(tag="missing"))


def test_summary_keys():
    rec = LatencyRecorder()
    rec.record(0.0, 5.0)
    summary = rec.summary()
    assert set(summary) == {"count", "mean", "p50", "p99", "p999", "max"}
    assert summary["count"] == 1


def test_sorted_cache_follows_appends():
    rec = LatencyRecorder()
    rec.record(0.0, 10.0, tag="get")
    assert rec.p50() == rec.p50(tag="get") == 10.0
    rec.record(0.0, 30.0, tag="get")
    assert rec.p50() == rec.p50(tag="get") == 20.0
    assert rec.summary()["max"] == 30.0


def test_nearest_rank_is_always_a_sample():
    ordered = [float(v) for v in range(1, 101)]
    assert nearest_rank(ordered, 50.0) == 50.0
    assert nearest_rank(ordered, 99.0) == 99.0
    assert nearest_rank(ordered, 99.5) == 100.0
    assert nearest_rank(ordered, 0.001) == 1.0
    assert math.isnan(nearest_rank([], 99.0))


# ----------------------------------------------------------------------
# numpy is the oracle, not a dependency: percentile and mean must equal
# numpy.percentile (linear) and numpy.mean on float64 in every bit.
# ----------------------------------------------------------------------
def _same_float(x, y):
    if x != x or y != y:
        return x != x and y != y
    return struct.pack("<d", x) == struct.pack("<d", y)


@st.composite
def _float_lists(draw):
    """Lengths on both sides of numpy's pairwise-sum block edges (8, 128),
    built from a small drawn pool so ties are common; half the elements
    are scaled to be distinct.  ``+ 0.0`` folds -0.0 into 0.0: where equal
    zeros land in a sort is the sort's business, not the statistic's."""
    n = draw(st.one_of(st.integers(0, 7), st.integers(8, 128),
                       st.integers(129, 4096)))
    pool = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.floats(min_value=-1e-310, max_value=1e-310)    # subnormals
        | st.floats(min_value=1.0, max_value=1e5),          # latencies
        min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [rng.choice(pool) * rng.choice((1.0, rng.random())) + 0.0
            for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(samples=_float_lists(),
       q=st.sampled_from([0.0, 50.0, 99.0, 99.9, 100.0])
       | st.floats(min_value=0.0, max_value=100.0))
def test_percentile_and_mean_equal_numpy_bit_for_bit(samples, q):
    np = pytest.importorskip("numpy")
    if not samples:
        assert math.isnan(percentile([], q)) and math.isnan(mean([]))
        return
    arr = np.asarray(samples)
    with np.errstate(all="ignore"):     # huge draws overflow on both sides
        assert _same_float(percentile(sorted(samples), q),
                           float(np.percentile(arr, q)))
        assert _same_float(mean(samples), float(np.mean(arr)))


def _golden_samples(seed, n):
    """Only Mersenne-Twister output and correctly rounded + - * /, so the
    samples are the same doubles under every libm."""
    rng = random.Random(seed)
    if seed % 2:    # signed, heavy both ways
        return [(rng.random() - 0.5) * 2e3 / (1.0 - rng.random())
                for _ in range(n)]
    return [20.0 + 120.0 * u / (1.0 - u)    # service floor + 1/x tail
            for u in (rng.random() for _ in range(n))]


# (seed, n, q, percentile, mean) as float.hex(), generated at commit b851d62
# by the numpy-backed LatencyRecorder (numpy 2.4.6): the bit-identity check
# that still runs where numpy is absent.
GOLDEN = [
    (1, 1, 99.0, '-0x1.2b923ee14b1b9p+12', '-0x1.2b923ee14b1b9p+12'),
    (2, 2, 50.0, '0x1.2dd75dc8edb00p+11', '0x1.2dd75dc8edb00p+11'),
    (3, 7, 99.9, '0x1.d2f1570567f81p+10', '-0x1.652a4c794b6c2p+9'),
    (4, 8, 12.5, '0x1.092dc3f2a4a10p+5', '0x1.161472a0b11edp+8'),
    (5, 9, 33.3, '0x1.b33f6a8f70803p+6', '0x1.f2333318efcb4p+10'),
    (6, 100, 99.0, '0x1.f4e29159236b0p+13', '0x1.428aca564bf4fp+13'),
    (7, 127, 50.0, '-0x1.51a50208e7efep+8', '0x1.bf6baad410010p+10'),
    (8, 128, 99.9, '0x1.dc46befa4181bp+16', '0x1.a8cd253e89a46p+10'),
    (9, 129, 0.0, '-0x1.0cdf395d71ab1p+17', '-0x1.0ebd66766ded8p+11'),
    (10, 130, 100.0, '0x1.0f828008983e6p+15', '0x1.8178f6b693f06p+9'),
    (11, 257, 99.0, '0x1.099ea9bd0f483p+15', '-0x1.13acf52e70b7dp+11'),
    (12, 1000, 99.9, '0x1.371f284868339p+16', '0x1.9d0aec8d4008fp+9'),
    (13, 4097, 50.0, '-0x1.8279944d0b495p+5', '0x1.8ab567003a3c3p+10'),
    (14, 20000, 99.9, '0x1.d516b02c950ffp+16', '0x1.4980a10051ccep+10'),
    (15, 30011, 99.0, '0x1.9bbd0d002638fp+14', '0x1.730f7867455b7p+10'),
]


@pytest.mark.parametrize("seed,n,q,want_percentile,want_mean", GOLDEN,
                         ids=[f"n{row[1]}-q{row[2]}" for row in GOLDEN])
def test_golden_vectors_from_the_numpy_backed_recorder(
        seed, n, q, want_percentile, want_mean):
    rec = LatencyRecorder()
    for value in _golden_samples(seed, n):
        rec.record(0.0, value)
    assert rec.percentile(q).hex() == want_percentile
    assert rec.mean().hex() == want_mean


def test_percentile_outside_0_100_raises_like_numpy():
    rec = LatencyRecorder()
    rec.record(0.0, 5.0)
    for q in (-0.1, 100.1, float("nan")):
        with pytest.raises(ValueError):
            rec.percentile(q)
        with pytest.raises(ValueError):
            percentile([5.0], q)


def test_nan_sample_makes_every_statistic_nan():
    rec = LatencyRecorder()
    for value in (3.0, 1.0, float("nan"), 2.0, 9.0, 4.0):
        rec.record(0.0, value, tag="bad")
    rec.record(0.0, 7.0, tag="good")
    for q in (0.0, 50.0, 99.0, 100.0):
        assert math.isnan(rec.percentile(q))
        assert math.isnan(rec.percentile(q, tag="bad"))
    assert math.isnan(rec.mean()) and math.isnan(rec.mean(tag="bad"))
    assert rec.p99(tag="good") == rec.mean(tag="good") == 7.0


# ----------------------------------------------------------------------
# Cold start: the run time imports the standard library and nothing else.
# ----------------------------------------------------------------------
_COLD_START = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None     # `import numpy` now raises ImportError
before = set(sys.modules)
import repro.machine, repro.experiments, repro.cluster, repro.syrupctl, repro.cli
from repro.experiments.runner import RocksDbTestbed, stage_point
from repro.workload.mixes import GET_ONLY
testbed, gen = stage_point(lambda: RocksDbTestbed(seed=9), 30_000, GET_ONLY,
                           2_000.0, 500.0)
testbed.machine.run()
assert gen.latency.summary()["count"] > 0
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(new - set(sys.stdlib_module_names) - {"repro"}))
"""


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"),
                    reason="sys.stdlib_module_names is 3.10+")
@pytest.mark.parametrize("numpy", ["importable", "blocked"])
def test_cold_start_imports_only_the_standard_library(numpy):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, numpy],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_counter_warmup_and_totals():
    counter = Counter(warmup_until=10.0)
    counter.add(5.0, "a")
    counter.add(15.0, "a")
    counter.add(20.0, "b", n=3)
    assert counter.get("a") == 1
    assert counter.get("b") == 3
    assert counter.total() == 4
    assert counter.as_dict() == {"a": 1, "b": 3}


def test_windowed_rate():
    rate = WindowedRate(start=1000.0)
    rate.add(500.0)   # before window
    rate.add(1500.0)
    rate.add(2000.0)
    # 2 events over a 1000 us window = 2000 events/s
    assert rate.per_second(end=2000.0) == pytest.approx(2000.0)
    assert WindowedRate(0.0).per_second(0.0) == 0.0


def test_table_add_and_columns():
    table = Table("demo", ["x", "y"])
    table.add(x=1, y=2.0)
    table.add(x=3)
    assert table.column("x") == [1, 3]
    assert table.column("y") == [2.0, None]
    assert len(table) == 2


def test_table_rejects_unknown_columns():
    table = Table("demo", ["x"])
    with pytest.raises(KeyError):
        table.add(z=1)


def test_table_render_contains_values():
    table = Table("demo", ["policy", "p99_us"])
    table.add(policy="rr", p99_us=123.456)
    text = table.render()
    assert "demo" in text
    assert "rr" in text
    assert "123.46" in text


def test_format_table_alignment_with_nan():
    text = format_table("t", ["a"], [type("R", (), {"get": lambda s, c: float("nan")})()])
    assert "nan" in text
