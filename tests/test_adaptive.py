"""Closed-loop telemetry tests: SignalBus, control laws, figure_adaptive.

Also home of the **no-op audit** the :mod:`repro.core.signals` docstring
points at: with the signal plane disabled (the default), figure6- and
figure8-style runs stay bit-identical and the hot path allocates not a
single signal object (sketch, bus, tracker, or objective).
"""

import pytest

from repro.core.signals import SignalBus
from repro.experiments.figure8 import stage_dynamic
from repro.experiments.figure_adaptive import (
    SLO_AVAILABILITY_TARGET,
    SLO_GET_P99_US,
    run_figure_adaptive,
)
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.obs.sketch import DDSketch
from repro.obs.slo import Slo, SloTracker
from repro.policies.adaptive import (
    BlameController,
    ShedController,
    SrptThresholdController,
)
from repro.sim.engine import Engine
from repro.workload.mixes import GET_SCAN_995_005


# ----------------------------------------------------------------------
# SignalBus
# ----------------------------------------------------------------------
def test_bus_validation():
    with pytest.raises(ValueError, match="interval_us"):
        SignalBus(Engine(), interval_us=0)


def test_bus_ticks_on_cadence_and_drains_with_the_heap():
    engine = Engine()
    bus = SignalBus(engine, interval_us=10.0)
    engine.schedule(35.0, lambda: None)   # workload stand-in
    bus.arm()
    engine.run()
    # ticks at 10/20/30 ride the workload; the re-arm at 30 gives one
    # final tick at 40, after which the heap is dry and the bus stops
    assert bus.ticks == 4
    assert bus.last_tick_at == 40.0
    assert engine.now == 40.0


def test_bus_active_predicate_stops_rearming():
    engine = Engine()
    bus = SignalBus(engine, interval_us=10.0)
    bus.active = lambda: engine.now < 25.0
    engine.schedule(100.0, lambda: None)
    bus.arm()
    engine.run()
    # the tick at 30 still fires (it was armed at 20); it just does not
    # re-arm, so the engine drains at the workload's own horizon
    assert bus.ticks == 3
    assert engine.now == 100.0


def test_bus_arm_is_idempotent_and_stop_cancels():
    engine = Engine()
    bus = SignalBus(engine, interval_us=10.0)
    bus.arm()
    bus.arm()
    assert engine.queued() == 1
    bus.stop()
    engine.run()
    assert bus.ticks == 0


def test_bus_tick_reads_publishes_then_controls_in_order():
    engine = Engine()
    bus = SignalBus(engine, interval_us=10.0)
    events = []
    bus.add_signal("a", lambda: 1, publish=lambda v: events.append(("pub_a", v)))
    bus.add_signal("b", lambda: 2)
    bus.add_controller("c1", lambda: events.append(("ctl", bus.last["a"])))
    bus.tick_once()
    # publishes happen per-signal at read time; controllers run last and
    # see every signal already cached in bus.last
    assert events == [("pub_a", 1), ("ctl", 1)]
    assert bus.last == {"a": 1, "b": 2}
    view = bus.view()
    assert view["signals"] == ["a", "b"]
    assert view["controllers"] == ["c1"]
    assert view["last"] == {"a": 1, "b": 2}
    assert view["ticks"] == 1


def test_null_bus_is_inert():
    # Off is None: a machine without signals= holds no bus, schedules no
    # tick, and syrupd reports the empty view.
    testbed = RocksDbTestbed(seed=3)
    machine = testbed.machine
    assert machine.signals is None
    machine.run(until=10_000.0)
    assert machine.engine.events_dispatched == 0
    assert machine.syrupd.signals() == {
        "interval_us": 0.0, "ticks": 0, "last_tick_at": None,
        "signals": [], "controllers": [], "last": {}}


# ----------------------------------------------------------------------
# Control laws
# ----------------------------------------------------------------------
class FakeMap:
    def __init__(self):
        self.data = {}

    def update(self, key, value):
        self.data[key] = value

    def lookup(self, key):
        return self.data.get(key, 0)


class FakeSlo:
    def __init__(self, state="ok", burn=0.0, budget=1.0):
        self._state = state
        self._burn = burn
        self._budget = budget
        self.long_window_us = 100.0

    def state(self):
        return self._state

    def burn_rate(self, _window_us):
        return self._burn

    def budget_remaining(self):
        return self._budget


def test_shed_controller_law():
    lat, avail, shed_map = FakeSlo(), FakeSlo(), FakeMap()
    shed = ShedController(lat, avail, shed_map,
                          step_up=20, warn_step=5, step_down=2,
                          decay_burn=0.5, max_level=50)
    # page: raise hard, clamped at max_level
    lat._state = "page"
    for _ in range(4):
        shed()
    assert shed.level == 50
    assert shed_map.lookup(0) == 50
    # warn: keep leaning in by warn_step (already clamped here)
    lat._state, shed.level = "warn", 10
    shed()
    assert shed.level == 15
    # ok but long-window burn still above decay_burn: hold the level
    lat._state, lat._burn = "ok", 0.9
    shed()
    assert shed.level == 15
    # ok with real margin: decay gently, floored at zero
    lat._burn = 0.1
    shed()
    assert shed.level == 13
    shed.level = 1
    shed()
    assert shed.level == 0
    # availability budget gone: back off fast even while paging
    lat._state, avail._budget, shed.level = "page", 0.0, 30
    shed()
    assert shed.level == 10
    assert shed_map.lookup(0) == 10


def test_srpt_threshold_controller_gates_on_count():
    sketch, thresh_map = DDSketch(), FakeMap()
    ctl = SrptThresholdController(sketch, thresh_map, factor=2.0,
                                  min_count=50)
    for _ in range(49):
        sketch.add(10.0)
    ctl()
    assert thresh_map.lookup(0) == 0   # not enough evidence yet
    sketch.add(10.0)
    ctl()
    # 2x the streaming median, within the sketch's relative error
    assert thresh_map.lookup(0) == pytest.approx(20, abs=2)


def test_blame_controller_scores_depth_and_scans():
    sockets = [[1, 2, 3], []]
    blame_map, scan_map = FakeMap(), FakeMap()
    scan_map.update(0, 1)   # a SCAN is in service on executor 0
    BlameController(sockets, blame_map, scan_map=scan_map,
                    scan_weight=64)()
    assert blame_map.lookup(0) == 3 + 64
    assert blame_map.lookup(1) == 0
    # without a scan map, blame is backlog only
    blame_only = FakeMap()
    BlameController(sockets, blame_only)()
    assert blame_only.lookup(0) == 3


# ----------------------------------------------------------------------
# figure_adaptive: the acceptance contrast
# ----------------------------------------------------------------------
LOAD = 240_000
DURATION_US = 120_000.0
WARMUP_US = 30_000.0


@pytest.fixture(scope="module")
def adaptive_table():
    return run_figure_adaptive(
        loads=[LOAD], duration_us=DURATION_US, warmup_us=WARMUP_US, seed=3
    )


def test_closed_loop_meets_the_slo_where_every_static_policy_fails(
    adaptive_table,
):
    rows = {row["variant"]: row for row in adaptive_table}
    assert set(rows) == {"fifo", "srpt_fixed", "no_shed", "adaptive"}
    for static in ("fifo", "srpt_fixed", "no_shed"):
        assert not rows[static]["slo_met"], static
    winner = rows["adaptive"]
    assert winner["slo_met"]
    assert winner["get_p99_us"] <= SLO_GET_P99_US
    assert winner["drop_pct"] <= 100.0 * (1.0 - SLO_AVAILABILITY_TARGET)
    # the loop actually actuated: the valve opened and the SRPT boundary
    # was tuned from the service-time sketch
    assert winner["shed_level"] > 0
    assert winner["srpt_thresh_us"] > 0
    # the ablation proves shedding (not steering/ordering) is the win
    assert rows["no_shed"]["shed_level"] == 0
    assert rows["no_shed"]["get_p99_us"] > winner["get_p99_us"]


def test_closed_loop_is_deterministic(adaptive_table):
    first = next(row for row in adaptive_table
                 if row["variant"] == "adaptive")
    repeat = run_figure_adaptive(
        loads=[LOAD], duration_us=DURATION_US, warmup_us=WARMUP_US,
        seed=3, variants=["adaptive"],
    ).rows[0]
    for column in adaptive_table.columns:
        assert repeat[column] == first[column], column


# ----------------------------------------------------------------------
# The no-op audit: disabled means bit-identical and allocation-free
# ----------------------------------------------------------------------
def fingerprint(testbed, gen):
    """Everything a figure table is computed from, bit-for-bit."""
    return (
        tuple(gen.latency._samples),
        {tag: tuple(gen.latency._select(tag)) for tag in gen.latency.tags()},
        gen.drop_fraction(),
        dict(testbed.machine.netstack.drops),
        testbed.machine.now,
    )


def test_machine_defaults_leave_the_signal_plane_absent():
    testbed = RocksDbTestbed(seed=3)
    assert testbed.machine.signals is None
    assert testbed.machine.slo is None


def test_disabled_runs_are_bit_identical_and_allocate_no_signal_objects(
    monkeypatch,
):
    counts = {}

    def probe(cls):
        orig = cls.__init__
        counts[cls.__name__] = 0

        def wrapped(self, *a, **k):
            counts[cls.__name__] += 1
            return orig(self, *a, **k)

        monkeypatch.setattr(cls, "__init__", wrapped)

    for cls in (DDSketch, SignalBus, SloTracker, Slo):
        probe(cls)
    # sanity: the probe sees instantiations (incl. through subclasses)
    DDSketch()
    assert counts["DDSketch"] == 1
    counts["DDSketch"] = 0

    def figure6_point(**kwargs):
        def factory():
            return RocksDbTestbed(seed=3, **kwargs)

        return fingerprint(*run_point(
            factory, 100_000, GET_SCAN_995_005, 60_000.0, 15_000.0
        ))

    # a default build and an explicitly-disabled build are the same run
    assert figure6_point() == figure6_point(signals=None, slo=None)

    def figure8_run():
        testbed, gen = stage_dynamic(
            load=3_000, duration_us=60_000.0, seed=5
        )
        testbed.machine.run()
        return fingerprint(testbed, gen)

    assert figure8_run() == figure8_run()

    # none of those four runs touched the signal plane
    assert counts == {"DDSketch": 0, "SignalBus": 0, "SloTracker": 0,
                      "Slo": 0}
