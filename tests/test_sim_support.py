"""Tests for RNG streams, timers, and generator processes."""

import pytest

from repro.cluster.sync import MapSyncBus
from repro.core.signals import SignalBus
from repro.obs.timeseries import FlightRecorder
from repro.sim.engine import Engine
from repro.sim.process import Process, Waiter, spawn
from repro.sim.rng import RngStreams
from repro.sim.timers import PeriodicTimer


# ----------------------------------------------------------------------
# RngStreams
# ----------------------------------------------------------------------
def test_same_name_same_stream():
    streams = RngStreams(seed=1)
    assert streams.get("a") is streams.get("a")


def test_streams_deterministic_across_instances():
    a = RngStreams(seed=42).get("arrivals")
    b = RngStreams(seed=42).get("arrivals")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RngStreams(seed=42)
    a = [streams.get("a").random() for _ in range(5)]
    b = [streams.get("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RngStreams(seed=1).get("x").random()
    b = RngStreams(seed=2).get("x").random()
    assert a != b


def test_fork_creates_independent_space():
    root = RngStreams(seed=5)
    child = root.fork("worker")
    assert child.get("x").random() != root.get("x").random()


# ----------------------------------------------------------------------
# PeriodicTimer
# ----------------------------------------------------------------------
def test_timer_fires_at_period():
    eng = Engine()
    times = []
    PeriodicTimer(eng, 10.0, lambda: times.append(eng.now)).arm()
    eng.run(until=35.0)
    assert times == [10.0, 20.0, 30.0]


def test_timer_stop():
    eng = Engine()
    count = [0]
    timer = PeriodicTimer(eng, 10.0, lambda: count.__setitem__(0, count[0] + 1))
    timer.arm()
    eng.schedule(25.0, timer.stop)
    eng.run(until=100.0)
    assert count[0] == 2


def test_timer_stop_from_callback():
    eng = Engine()
    fired = []

    def cb():
        fired.append(eng.now)
        if len(fired) == 2:
            timer.stop()

    timer = PeriodicTimer(eng, 5.0, cb)
    timer.arm()
    eng.run(until=100.0)
    assert fired == [5.0, 10.0]
    assert not eng.queued()         # the running tick did not re-arm


def test_timer_arm_after_stop_resumes():
    eng = Engine()
    times = []
    timer = PeriodicTimer(eng, 10.0, lambda: times.append(eng.now))
    timer.arm()
    timer.arm()                     # idempotent: one pending tick
    assert eng.queued() == 1
    eng.run(until=25.0)
    timer.stop()
    eng.run(until=50.0)
    timer.arm()                     # interval_us from now
    eng.run(until=75.0)
    assert times == [10.0, 20.0, 60.0, 70.0]


def test_timer_false_rearm_ends_the_loop():
    eng = Engine()
    times = []
    timer = PeriodicTimer(eng, 10.0, lambda: times.append(eng.now),
                          rearm=lambda: eng.now < 30.0)
    timer.arm()
    eng.run()
    # the tick at 30 still fires (armed at 20); it just does not re-arm
    assert times == [10.0, 20.0, 30.0]
    assert eng.now == 30.0
    timer.arm()                     # a later arm() starts it again
    eng.run()
    assert times[3:] == [40.0]


def test_timer_rejects_nonpositive_period():
    with pytest.raises(ValueError, match="interval_us"):
        PeriodicTimer(Engine(), 0.0, lambda: None)


def test_the_tick_loops_are_periodic_timers():
    # One self-re-arming loop in the tree: the recorder and both buses
    # inherit arm / stop / _tick and define no schedule of their own.
    for loop in (FlightRecorder, SignalBus, MapSyncBus):
        assert issubclass(loop, PeriodicTimer)
        assert not {"arm", "disarm", "stop", "_tick"} & set(vars(loop))


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def test_process_sleeps():
    eng = Engine()
    trace = []

    def proc():
        trace.append(eng.now)
        yield 5.0
        trace.append(eng.now)
        yield 10.0
        trace.append(eng.now)

    spawn(eng, proc())
    eng.run()
    assert trace == [0.0, 5.0, 15.0]


def test_process_result():
    eng = Engine()

    def proc():
        yield 1.0
        return "done"

    p = spawn(eng, proc())
    eng.run()
    assert p.alive is False
    assert p.result == "done"


def test_process_waiter_wakeup_value():
    eng = Engine()
    waiter = Waiter()
    got = []

    def sleeper():
        value = yield waiter
        got.append((eng.now, value))

    spawn(eng, sleeper())
    eng.schedule(8.0, waiter.wake, "payload")
    eng.run()
    assert got == [(8.0, "payload")]


def test_waiter_wake_before_yield():
    eng = Engine()
    waiter = Waiter()
    waiter.wake("early")
    got = []

    def sleeper():
        value = yield waiter
        got.append(value)

    spawn(eng, sleeper())
    eng.run()
    assert got == ["early"]


def test_process_kill():
    eng = Engine()
    trace = []

    def proc():
        trace.append("start")
        yield 10.0
        trace.append("never")

    p = spawn(eng, proc())
    eng.schedule(5.0, p.kill)
    eng.run()
    assert trace == ["start"]
    assert p.alive is False


def test_process_bad_yield_type():
    eng = Engine()

    def proc():
        yield "nonsense"

    spawn(eng, proc())
    with pytest.raises(TypeError):
        eng.run()
