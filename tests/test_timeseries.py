"""Tests for the flight recorder (repro.obs.timeseries + syrupctl timeline).

Covers sampling semantics per metric kind (counter deltas, gauge values,
sketch summaries), ring bounds, the arm/stop/termination contract,
the determinism guarantee (recorder on == metrics off, bit-identical),
the dynamic Figure-8 run's recorded policy switch, and the timeline
rendering surface.
"""

import pytest

from repro import Machine, set_a
from repro.experiments.figure8 import run_figure8_dynamic
from repro.experiments.runner import RocksDbTestbed
from repro.obs import FlightRecorder, MetricsRegistry
from repro.sim.engine import Engine
from repro.syrupctl import render_timeline
from repro.workload.mixes import GET_SCAN_50_50
from repro.workload.requests import GET


# ----------------------------------------------------------------------
# Core sampling semantics (synthetic registry + engine)
# ----------------------------------------------------------------------
def make_recorder(interval_us=10.0, capacity=1024):
    engine = Engine()
    registry = MetricsRegistry(clock=engine)
    recorder = FlightRecorder(registry, engine, interval_us=interval_us,
                              capacity=capacity)
    return engine, registry, recorder


def test_counter_sampled_as_per_interval_delta():
    engine, registry, recorder = make_recorder()
    c = registry.counter("app", "hook", "calls")
    c.inc(5)
    recorder.sample()
    c.inc(2)
    recorder.sample()
    recorder.sample()  # no movement
    assert recorder.points("app", "hook", "calls") == [
        (0.0, 5), (0.0, 2), (0.0, 0)
    ]
    assert recorder.series("app", "hook", "calls").kind == "counter"


def test_gauge_sampled_as_value():
    _e, registry, recorder = make_recorder()
    g = registry.gauge("app", "syrupd", "size")
    g.set(42)
    recorder.sample()
    g.set(7)
    recorder.sample()
    assert [v for _t, v in recorder.points("app", "syrupd", "size")] == [42, 7]


def test_sketch_sampled_as_count_delta_plus_percentiles():
    _e, registry, recorder = make_recorder()
    h = registry.sketch("app", "maps", "lat")
    h.observe(2.0)
    h.observe(100.0)
    recorder.sample()
    points = recorder.points("app", "maps", "lat")
    assert len(points) == 1
    _t, value = points[0]
    assert value["count"] == 2
    assert value["p99"] == h.percentile(99.0)
    recorder.sample()
    assert recorder.points("app", "maps", "lat")[-1][1]["count"] == 0
    # field extraction
    assert recorder.points("app", "maps", "lat", field="count") == [
        (0.0, 2), (0.0, 0)
    ]


def test_rate_per_s_scales_deltas_by_interval():
    _e, registry, recorder = make_recorder(interval_us=1_000.0)
    c = registry.counter("app", "hook", "calls")
    c.inc(3)
    recorder.sample()
    # 3 events per 1000us interval = 3000 events/s
    assert recorder.rate_per_s("app", "hook", "calls") == [(0.0, 3000.0)]


def test_ring_capacity_bounds_samples():
    _e, registry, recorder = make_recorder(capacity=4)
    c = registry.counter("app", "hook", "calls")
    for _ in range(10):
        c.inc()
        recorder.sample()
    series = recorder.series("app", "hook", "calls")
    assert len(series) == 4
    assert recorder.samples_taken == 10


def test_recorder_ticks_ride_the_engine():
    engine, registry, recorder = make_recorder(interval_us=10.0)
    c = registry.counter("app", "hook", "calls")
    # a workload event at t=35 keeps the heap non-empty through 3 ticks
    engine.at(35.0, lambda: c.inc(4))
    recorder.arm()
    engine.run()
    times = recorder.series("app", "hook", "calls").times()
    assert times[:4] == [10.0, 20.0, 30.0, 40.0]
    # the increment at t=35 lands in the (30, 40] sample
    assert recorder.points("app", "hook", "calls")[3] == (40.0, 4)
    # heap drained -> recorder stopped re-arming -> run terminated
    assert not engine.queued()


def test_arm_is_idempotent_and_stop_cancels():
    engine, _registry, recorder = make_recorder(interval_us=10.0)
    recorder.arm()
    recorder.arm()  # no second tick scheduled
    engine.at(15.0, lambda: None)
    engine.run()
    assert recorder.samples_taken == 2  # t=10 and t=20, not four
    recorder.arm()
    recorder.stop()
    engine.run()
    assert recorder.samples_taken == 2  # stopped tick never fired


def test_invalid_interval_rejected():
    engine = Engine()
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        FlightRecorder(registry, engine, interval_us=0)


def test_snapshot_is_json_safe():
    import json

    _e, registry, recorder = make_recorder()
    registry.counter("app", "hook", "calls").inc()
    registry.sketch("app", "maps", "lat").observe(3.0)
    recorder.sample()
    rows = recorder.snapshot()
    assert json.loads(json.dumps(rows)) == rows
    assert {row["kind"] for row in rows} == {"counter", "sketch"}


def test_null_recorder_noops():
    # Off is None: a machine without timeseries= holds no recorder, runs
    # (nothing to arm), and its timeline view says so.
    machine = Machine(set_a(), metrics=True)
    assert machine.obs.recorder is None
    machine.run(until=1_000.0)
    assert machine.engine.events_dispatched == 0
    assert "recording disabled" in render_timeline(machine)


# ----------------------------------------------------------------------
# Machine integration
# ----------------------------------------------------------------------
def test_machine_timeseries_requires_metrics():
    with pytest.raises(ValueError):
        Machine(set_a(), timeseries=True)


def test_machine_defaults_to_null_recorder():
    machine = Machine(set_a())
    assert machine.obs.recorder is None
    machine = Machine(set_a(), metrics=True)
    assert machine.obs.recorder is None


def test_machine_timeseries_interval():
    machine = Machine(set_a(), metrics=True, timeseries=True)
    assert machine.obs.recorder.interval_us == 1_000.0
    machine = Machine(set_a(), metrics=True, timeseries=500.0)
    assert machine.obs.recorder.interval_us == 500.0


def test_recorder_on_does_not_change_results():
    """Bit-identical workload outputs with the recorder on vs metrics off."""

    def run(**obs_kwargs):
        testbed = RocksDbTestbed(policy=None, num_threads=6, seed=9,
                                 **obs_kwargs)
        gen = testbed.drive(40_000, GET_SCAN_50_50, 40_000.0, 10_000.0)
        gen.start()
        testbed.machine.run()
        return gen

    plain = run()
    recorded = run(metrics=True, timeseries=100.0)
    assert recorded.latency.p99() == plain.latency.p99()
    assert recorded.latency.p99(tag=GET) == plain.latency.p99(tag=GET)
    assert recorded.drop_fraction() == plain.drop_fraction()
    assert recorded.goodput_rps(40_000.0) == plain.goodput_rps(40_000.0)
    assert recorded.latency._by_tag == plain.latency._by_tag


def test_figure8_dynamic_records_the_policy_switch():
    testbed, _gen = run_figure8_dynamic(
        load=3_000, duration_us=60_000.0, seed=5,
        metrics=True, timeseries=2_000.0,
    )
    recorder = testbed.machine.obs.recorder
    points = recorder.points("rocksdb", "socket_select", "schedule_calls")
    assert points, "hook counters never sampled"
    switch_at = 30_000.0
    before = [v for t, v in points if t <= switch_at]
    after = [v for t, v in points if t > switch_at]
    # vanilla first half: the hook does not exist yet / never fires
    assert sum(before) == 0
    # SCAN Avoid second half: scheduling on (roughly) every packet —
    # ~3000 RPS over the remaining 30 ms is ~90 schedule() calls
    assert sum(after) > 50


# ----------------------------------------------------------------------
# Timeline rendering
# ----------------------------------------------------------------------
def test_render_timeline_disabled_message():
    machine = Machine(set_a())
    text = render_timeline(machine)
    assert "timeseries" in text


def test_render_timeline_shows_series_and_switch():
    testbed, _gen = run_figure8_dynamic(
        load=3_000, duration_us=60_000.0, seed=5,
        metrics=True, timeseries=2_000.0,
    )
    text = render_timeline(testbed.machine)
    assert "schedule_calls" in text
    assert "socket_select" in text
    # the left (pre-switch) half of the hook-counter sparkline is blank
    for line in text.splitlines():
        if "schedule_calls" in line:
            bar = line.rsplit("|", 1)[0].split("|", 1)[1]
            mid = len(bar) // 2
            assert bar[: mid - 2].strip() == ""
            assert bar[mid + 2:].strip() != ""
            break
    else:  # pragma: no cover
        pytest.fail("schedule_calls row missing from timeline")


def test_render_timeline_filters_by_scope():
    testbed, _gen = run_figure8_dynamic(
        load=3_000, duration_us=60_000.0, seed=5,
        metrics=True, timeseries=2_000.0,
    )
    text = render_timeline(testbed.machine, scope="socket_select")
    assert "socket_select" in text
    assert "syrupd" not in text
