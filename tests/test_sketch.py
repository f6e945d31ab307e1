"""Streaming sketch tests (repro.obs.sketch).

The satellite's property suite: DDSketch relative error stays within the
configured ``alpha`` against an exact nearest-rank oracle across
uniform, heavy-tailed, and constant distributions; merged sketches equal
the sketch of the concatenated stream; and the registry/recorder/
OpenMetrics integrations treat the new ``sketch`` kind natively.
"""

import random

import pytest

from conftest import Clock
from repro.obs import FlightRecorder, MetricsRegistry
from repro.obs.export import to_openmetrics
from repro.obs.sketch import DDSketch, DEFAULT_ALPHA, Ewma, WindowedRate
from repro.sim.engine import Engine
from repro.stats.latency import nearest_rank

QUANTILES = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0]


def exact_nearest_rank(samples, p):
    """The oracle: the ceil(p*n)-th smallest sample (rank floored at 1)."""
    return nearest_rank(sorted(samples), 100.0 * p)


def _uniform(rng, n):
    return [rng.uniform(1.0, 1000.0) for _ in range(n)]


def _heavy_tailed(rng, n):
    # Pareto alpha=1.2: infinite variance, the tail DDSketch exists for.
    return [rng.paretovariate(1.2) for _ in range(n)]


def _constant(_rng, n):
    return [42.5] * n


@pytest.mark.parametrize("make", [_uniform, _heavy_tailed, _constant])
@pytest.mark.parametrize("alpha", [0.01, 0.05])
def test_relative_error_within_alpha(make, alpha):
    rng = random.Random(17)
    samples = make(rng, 5000)
    sketch = DDSketch(alpha=alpha)
    for value in samples:
        sketch.add(value)
    for p in QUANTILES:
        true = exact_nearest_rank(samples, p)
        est = sketch.quantile(p)
        assert abs(est - true) <= alpha * true + 1e-9, (p, est, true)


def test_merge_equals_concatenated_stream():
    rng = random.Random(23)
    samples = [rng.expovariate(1 / 120.0) for _ in range(4000)]
    concat = DDSketch()
    for value in samples:
        concat.add(value)
    odd, even = DDSketch(), DDSketch()
    for index, value in enumerate(samples):
        (odd if index % 2 else even).add(value)
    merged = even.merge(odd)
    assert merged is even
    assert merged.count == concat.count
    assert merged.sum == pytest.approx(concat.sum)
    assert merged.vmin == concat.vmin
    assert merged.vmax == concat.vmax
    assert merged.zero_count == concat.zero_count
    assert merged.buckets == concat.buckets
    for p in QUANTILES:
        assert merged.quantile(p) == concat.quantile(p)


def test_merge_requires_same_alpha_and_type():
    sketch = DDSketch(alpha=0.01)
    with pytest.raises(ValueError, match="alpha"):
        sketch.merge(DDSketch(alpha=0.02))
    with pytest.raises(TypeError):
        sketch.merge([1, 2, 3])


def test_empty_and_invalid_inputs():
    sketch = DDSketch()
    assert sketch.quantile(0.99) == 0.0
    assert sketch.mean == 0.0
    assert len(sketch) == 0
    summary = sketch.summary()
    assert summary["count"] == 0
    assert summary["min"] == summary["max"] == 0.0
    with pytest.raises(ValueError):
        sketch.quantile(1.5)
    with pytest.raises(ValueError):
        DDSketch(alpha=0.0)
    with pytest.raises(ValueError):
        DDSketch(alpha=1.0)


def test_zero_and_negative_values_use_the_zero_bucket():
    sketch = DDSketch()
    for _ in range(10):
        sketch.add(0.0)
    assert sketch.zero_count == 10
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(1.0) == 0.0
    sketch.add(100.0, n=90)
    # 10% of the mass is exactly zero; the median is in the 100us bucket
    assert sketch.quantile(0.05) == 0.0
    assert sketch.quantile(0.5) == pytest.approx(100.0, rel=DEFAULT_ALPHA)


def test_weighted_add_matches_repeated_add():
    repeated, weighted = DDSketch(), DDSketch()
    for _ in range(7):
        repeated.add(33.0)
    weighted.add(33.0, n=7)
    assert weighted.buckets == repeated.buckets
    assert weighted.count == repeated.count
    assert weighted.sum == pytest.approx(repeated.sum)


def test_estimates_clamped_to_observed_extremes():
    single = DDSketch(alpha=0.05)
    single.add(37.0)
    # one sample: every quantile is that sample
    assert all(single.quantile(p) == 37.0 for p in QUANTILES)
    sketch = DDSketch(alpha=0.05)
    sketch.add(10.0)
    sketch.add(10.5)
    assert sketch.quantile(0.0) >= sketch.vmin
    assert sketch.quantile(1.0) <= sketch.vmax


def test_summary_and_mean():
    sketch = DDSketch()
    for value in [10.0, 20.0, 30.0]:
        sketch.add(value)
    s = sketch.summary()
    assert s["count"] == 3 and sketch.sum == 60.0
    assert s["mean"] == pytest.approx(20.0)
    assert s["min"] == 10.0 and s["max"] == 30.0
    assert s["p50"] == pytest.approx(20.0, rel=DEFAULT_ALPHA)


# ----------------------------------------------------------------------
# Windowed estimators
# ----------------------------------------------------------------------
def test_windowed_rate_ages_out_old_events():
    clock = Clock()
    rate = WindowedRate(clock, window_us=100.0, buckets=10)
    for t in (5.0, 15.0, 25.0):
        clock.now = t
        rate.observe()
    assert rate.events_in_window() == 3
    assert rate.rate_per_s() == pytest.approx(3 * 1e6 / 25.0)
    clock.now = 120.0   # first bins now beyond the window
    assert rate.events_in_window() == 0
    with pytest.raises(ValueError):
        WindowedRate(Clock(), window_us=0)


def test_ewma_halflife_decay():
    clock = Clock()
    ewma = Ewma(clock, halflife_us=100.0)
    assert ewma.read(default=-1.0) == -1.0
    ewma.update(10.0)
    assert ewma.read() == 10.0
    clock.now = 100.0   # exactly one half-life later
    ewma.update(20.0)
    assert ewma.read() == pytest.approx(15.0)
    with pytest.raises(ValueError):
        Ewma(Clock(), halflife_us=0)


# ----------------------------------------------------------------------
# Registry / recorder / exporter integration
# ----------------------------------------------------------------------
def test_registry_sketch_kind_and_get_or_create():
    registry = MetricsRegistry(clock=Clock(7.0))
    sketch = registry.sketch("app", "scope", "svc")
    assert registry.sketch("app", "scope", "svc") is sketch
    assert sketch.kind == "sketch"
    assert sketch.updated_at is None
    sketch.observe(50.0)
    assert sketch.updated_at == 7.0
    # value and snapshot read a sketch's observation count and summary
    assert registry.value("app", "scope", "svc") == 1
    (row,) = registry.snapshot()
    assert row["kind"] == "sketch" and row["p99"] > 0


def test_null_registry_sketch_is_null_metric():
    # Off is None: a dark machine has no registry to hold a sketch, so
    # no sketch object exists and the server's sketch stays unset.
    from repro.experiments.runner import RocksDbTestbed

    testbed = RocksDbTestbed(seed=3)
    assert testbed.machine.obs.registry is None
    assert testbed.server.svc_sketch is None


def test_recorder_samples_sketch_like_histogram():
    engine = Engine()
    registry = MetricsRegistry(clock=engine)
    recorder = FlightRecorder(registry, engine, interval_us=10.0)
    sketch = registry.sketch("app", "scope", "lat")

    def feed():
        sketch.observe(100.0)
        sketch.observe(200.0)

    engine.schedule(5.0, feed)
    recorder.arm()
    engine.run()
    series = recorder.series("app", "scope", "lat")
    assert series.kind == "sketch"
    _when, sample = series.samples[0]
    assert sample["count"] == 2
    assert sample["p99"] == pytest.approx(200.0, rel=DEFAULT_ALPHA)


def test_openmetrics_summary_family():
    registry = MetricsRegistry()
    sketch = registry.sketch("rocksdb", "client", "get_latency_us")
    for value in (10.0, 20.0, 1000.0):
        sketch.observe(value)
    text = to_openmetrics(registry)
    assert "# TYPE syrup_get_latency_us summary" in text
    for q in ("0.5", "0.9", "0.99"):
        assert (f'syrup_get_latency_us{{app="rocksdb",scope="client",'
                f'quantile="{q}"}}') in text
    assert "syrup_get_latency_us_sum" in text
    assert ('syrup_get_latency_us_count{app="rocksdb",scope="client"} 3'
            in text)
