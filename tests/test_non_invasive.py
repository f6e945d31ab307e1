"""Observation is non-invasive, request by request: on the fleet and on
one machine.

The fleet half.  A dark :class:`~repro.cluster.fleet.Fleet` (no probe,
registry or latency sketch) takes short cuts a lit one cannot: it books
each response where service ends, with no event; on plain FIFO machines
it schedules each request's service when the switch steers it (the FIFO
multi-server recursion over the workers' free times), so the machine
arrival is no event either; and it keeps each service's completion on
its own heap, retired before anything observes the rack, so the
completion is no event either.  A fleet with ``spans=1`` or
``metrics=True`` takes the event path for all three.  Observing must not
change what the rack does: on generated kill, restore and link-flap
timings the two must agree on every latency sample in booking order,
every ``completed_at``, every drop and its reason, the final clock (but
where the lit run ends on a completion a kill left stale), the sync
ticks, per-machine ``served`` and ``fleet_view()`` — read mid-run too —
and the dark run's events must be lower by exactly what it folded.

The timings straddle failover detection (a restore before and after it),
kill a machine at the very instant a request lands on it, and restore a
machine inside the wire window, while requests steered at it are still
landing: those arrive by event, and every later steer to that machine
must wait behind them (``FleetMachine._inflight``), or FIFO order breaks.
Faults also fall on the exact instants where services end and sync ticks
fire, and hand-placed requests end exactly at a tick, their completion
ordered before the tick's own event or after it: a deferred completion
must be retired in the engine's ``(time, seq)`` order, not by its time
alone.

The single-machine half.  A dark :class:`~repro.machine.Machine` holds
``None`` for every telemetry tier; switching one on must leave the bare
RocksDB path's samples, ``completed_at``, drops and clock where they
were, and its events too but for what the tier itself posts.
"""

import functools
import math
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Hook
from repro.cluster import Fleet
from repro.cluster.fleet import (
    DEFAULT_FAILOVER_DETECT_US,
    DEFAULT_FORWARD_US,
    DEFAULT_WIRE_US,
    FleetMachine,
    FleetRequest,
)
from repro.experiments.runner import RocksDbTestbed
from repro.faults import FaultPlan
from repro.policies.builtin import SCAN_AVOID
from repro.workload.mixes import GET_SCAN_995_005
from repro.workload.requests import GET

HOP_US = DEFAULT_FORWARD_US + DEFAULT_WIRE_US
DETECT_US = DEFAULT_FAILOVER_DETECT_US
TICK_US = 50.0                  # Fleet's default sync interval
DURATION_US = 4_000.0
MEAN_SERVICE_US = 240.0         # FLEET_MIX: 90% GETs ~200 us, 10% SCANs ~800
TICKS = [k * TICK_US for k in range(1, int(DURATION_US / TICK_US))]

#: The observed configurations: each forces the event path for the
#: arrival, the service completion and the response hop.
LIT = ({"spans": 1}, {"metrics": True})

#: Tier-1 searches 60 examples; ``--hypothesis-profile=deep`` (see
#: conftest.py) searches further and from fresh seeds.
SEARCH = (settings.default if settings.get_current_profile_name() == "deep"
          else settings(max_examples=60, deadline=None))


class FleetRun:
    """One rack run and what it did: the fleet, its admitted requests,
    its drops ``(rid, reason, now)``, the rids that landed by ``_land``,
    every ``_complete_service`` dispatch ``(machine, now, live)``, the
    sweeps, and the mid-run read."""

    def __init__(self, fleet):
        self.fleet = fleet
        self.requests, self.drops, self.landed = [], [], []
        self.completions = []
        self.sweeps = 0
        self.mid = None

    @property
    def events(self):
        return self.fleet.engine.events_dispatched


@contextmanager
def _counting(run):
    land = FleetMachine._land
    complete = FleetMachine._complete_service
    sweep = Fleet._sweep_due

    def counted_land(machine, request):
        run.landed.append(request.rid)
        land(machine, request)

    def counted_complete(machine, request, epoch):
        run.completions.append(
            (machine.index, machine.fleet.engine.now, epoch == machine.epoch))
        complete(machine, request, epoch)

    def counted_sweep(fleet):
        run.sweeps += 1
        sweep(fleet)

    FleetMachine._land = counted_land
    FleetMachine._complete_service = counted_complete
    Fleet._sweep_due = counted_sweep
    try:
        yield
    finally:
        FleetMachine._land = land
        FleetMachine._complete_service = complete
        Fleet._sweep_due = sweep


def _run(shape, kills=(), flaps=(), probes=(), mid_us=None, **tiers):
    """One rack run: generated load plus the hand-placed ``probes``
    ``(at_us, service_us)``, read mid-run at ``mid_us`` if given."""
    machines, workers, seed, rps = shape
    plan = FaultPlan(seed=1)
    for machine, at_us, restore_at_us in kills:
        plan.machine_kill(machine, at_us=at_us, restore_at_us=restore_at_us)
    for machine, at_us, duration_us in flaps:
        plan.link_down(machine, at_us=at_us, duration_us=duration_us)
    fleet = Fleet(num_machines=machines, workers_per_machine=workers,
                  seed=seed, faults=plan, **tiers)
    run = FleetRun(fleet)
    admit, drop = fleet.admit, fleet.drop

    def record_admit(request):
        run.requests.append(request)
        admit(request)

    def record_drop(request, reason):
        run.drops.append((request.rid, reason, fleet.engine.now))
        drop(request, reason)

    fleet.admit, fleet.drop = record_admit, record_drop
    for rid, (at_us, service_us) in enumerate(probes, 1):
        fleet.engine.post_at(at_us, fleet.admit, FleetRequest(
            -rid, GET, service_us, sent_at=at_us))
    with _counting(run):
        fleet.drive(duration_us=DURATION_US, rps=rps, num_users=2_000)
        if mid_us is not None:
            fleet.run(until=mid_us)
            run.mid = (fleet.fleet_view(), [m.load() for m in fleet.machines],
                       sum(1 for r in run.requests
                           if r.completed_at is not None
                           and r.completed_at > mid_us))
        fleet.run()
    assert fleet.outstanding == 0 and fleet.engine.pending() == 0
    return run


def _trace(run):
    fleet = run.fleet
    return {
        "samples": fleet.latency._samples,
        "by_tag": list(fleet.latency._by_tag.items()),
        "completed_at": [(r.rid, r.completed_at) for r in run.requests],
        "drops": run.drops,
        "ticks": fleet.sync.ticks,
        "served": [m.served for m in fleet.machines],
        "view": fleet.fleet_view(),
    }


def _service_ends(run):
    return [(machine, now) for machine, now, live in run.completions if live]


@st.composite
def tick_ties(draw):
    """A request admitted at an integral instant whose service, if it
    starts as it lands, ends exactly at a sync tick: steered and landed
    before the tick one interval earlier, which posts this one (its
    completion is ordered first), or after it (ordered after the tick).
    Integral instants keep the sums exact."""
    tick = draw(st.integers(3, int(DURATION_US * 0.8 / TICK_US))) * TICK_US
    if draw(st.booleans()):
        at_us = tick - TICK_US - draw(st.integers(
            int(HOP_US) + 1, int(min(400.0, tick - TICK_US))))
    else:
        at_us = tick - TICK_US + draw(st.integers(
            1, int(TICK_US - HOP_US) - 1))
    return at_us, tick - at_us - HOP_US


@st.composite
def scenarios(draw):
    machines = draw(st.integers(2, 8))
    workers = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    utilisation = draw(st.floats(0.5, 1.2))
    rps = int(utilisation * machines * workers * 1e6 / MEAN_SERVICE_US)
    shape = (machines, workers, seed, rps)
    probes = draw(st.lists(tick_ties(), max_size=3))
    # Where services end with no fault at all: a flap drawn at one ties
    # (the run is the same up to the first fault).
    ends = [now for _m, now in _service_ends(
        _run(shape, probes=probes, metrics=True))]

    def instants(ends):
        return st.one_of(st.floats(0.0, DURATION_US), st.sampled_from(TICKS),
                         st.sampled_from(ends or TICKS))

    flaps = []
    for machine, at_us in draw(st.lists(st.tuples(
            st.integers(0, machines - 1), instants(ends)), max_size=2)):
        # back at a tick or a service end, where the sum is exact
        exact = [t - at_us for t in TICKS + ends
                 if t > at_us and at_us + (t - at_us) == t]
        flaps.append((machine, at_us, draw(st.one_of(
            st.floats(1.0, HOP_US), st.floats(HOP_US, 3_000.0),
            st.sampled_from(exact or [HOP_US])))))
    # Where requests land and services end, flaps included: the run is
    # the same up to the first kill, so a kill drawn from these hits a
    # landing or a service end.
    flapped = _run(shape, (), flaps, probes, metrics=True)
    landings = [(r.machine, r.sent_at + HOP_US) for r in flapped.requests
                if r.machine is not None and r.sent_at < DURATION_US * 0.8]
    ends = [(m, now) for m, now in _service_ends(flapped)
            if now < DURATION_US * 0.8]
    machine, at_us = draw(st.one_of(
        # at the landing itself, or up to a hop before it (on the wire)
        st.tuples(st.sampled_from(landings or [(0, 1_000.0)]),
                  st.one_of(st.just(0.0), st.floats(0.0, HOP_US))).map(
            lambda pick: (pick[0][0], pick[0][1] - pick[1])),
        # as a service ends on it, or a tick fires
        st.sampled_from(ends or [(0, 1_000.0)]),
        st.tuples(st.integers(0, machines - 1), st.sampled_from(TICKS)),
    ))
    later = [t for t in TICKS + [now for _m, now in ends] if t > at_us]
    restore = draw(st.one_of(
        st.none(),
        st.floats(0.01, HOP_US).map(at_us.__add__),     # inside the wire
        st.floats(HOP_US, DETECT_US - 1.0).map(at_us.__add__),  # before
        st.just(at_us + DETECT_US),                     # with detection
        st.floats(DETECT_US + 1.0, 2_000.0).map(at_us.__add__),  # after
        st.sampled_from(later or [at_us + DETECT_US]),  # a tick, an end
    ))
    kills = [(machine, at_us, restore)]
    others = draw(st.lists(st.tuples(
        st.integers(0, machines - 1),
        instants([now for _m, now in ends]),
        st.one_of(st.none(), st.floats(0.01, 2_000.0)),
    ), max_size=1))
    kills += [(m, at, None if back is None else at + back)
              for m, at, back in others]
    mid_us = draw(st.one_of(st.none(), instants([now for _m, now in ends])))
    return shape, kills, flaps, probes, mid_us


@SEARCH
@given(scenario=scenarios())
# Restored as detection fires: the steers made while machine 0 was down
# land by event after the restore, and a steer scheduled ahead of them
# would take the one worker out of arrival order.
@example(scenario=((2, 1, 3, 8_333),
                   [(0, 425.94188775314973, 925.9418877531498)], [], [],
                   None))
# Three services end exactly at sync ticks, alone on their workers: the
# completions of -1 (steered at 70, ending at 200) and -2 (202, 450) are
# ordered before their ticks' own events (posted at 150 and 400), -3's
# (752, 800) after its tick's (posted at 750).  Each tick's load snapshot
# must count -3 and not -1 or -2, and the replica it applies steers the
# requests after it: retiring at a tick by ``end <= now`` books -3 early,
# by ``end < now`` books -1 and -2 late, and either sends later requests
# elsewhere.  The mid-run read falls between the ties.
@example(scenario=((5, 2, 6326, 26_679), [], [],
                   [(70.0, 124.0), (202.0, 242.0), (752.0, 42.0)], 600.0))
def test_dark_fleet_is_the_observed_fleet(scenario):
    shape, kills, flaps, probes, mid_us = scenario
    dark = _run(shape, kills, flaps, probes, mid_us)
    assert dark.fleet._direct and dark.completions == []
    expected = _trace(dark)
    forwarded = sum(dark.fleet.switch.forwarded)
    for tiers in LIT:
        lit = _run(shape, kills, flaps, probes, mid_us, **tiers)
        assert not lit.fleet._dark and lit.landed == [] and lit.sweeps == 0
        assert _trace(lit) == expected
        # The same final clock, unless the lit run's last event is a
        # completion a kill left stale (the dark run drops those).
        stale = [now for _m, now, live in lit.completions if not live]
        assert lit.fleet.engine.now == max([dark.fleet.engine.now] + stale)
        if mid_us is not None:
            # Read after run(until=...): the same loads, served and
            # forwards; the dark run has booked the responses still on
            # the wire back (where their service ended), the lit one not.
            view, loads, on_wire = dark.mid
            lit_view, lit_loads, lit_on_wire = lit.mid
            assert loads == lit_loads and lit_on_wire == 0
            assert view["completed"] - on_wire == lit_view["completed"]
            assert view["outstanding"] + on_wire == lit_view["outstanding"]
            lagging = ("completed", "outstanding", "p50_us", "p99_us")
            assert {k: v for k, v in view.items() if k not in lagging} \
                == {k: v for k, v in lit_view.items() if k not in lagging}
        # Folded, and nothing else: each booked response, each forward
        # whose landing took no event (a kill sends the requests still on
        # the wire, and a dead machine's steers, by ``_land``) and each
        # service completion, stale ones included (a kill drops them off
        # the dark heap); the dark run's sweeps are its only extra events.
        assert sum(lit.fleet.switch.forwarded) == forwarded
        assert lit.events - dark.events \
            == (dark.fleet.completed + forwarded - len(dark.landed)
                + len(lit.completions) - dark.sweeps)


# ----------------------------------------------------------------------
# One machine: the tenth-size ``rocksdb_steady`` staging (SCAN Avoid at
# SOCKET_SELECT over six threads, 150 K rps of GET_SCAN_995_005, 80 ms,
# seed 3), with one tier switched on at a time.
# ----------------------------------------------------------------------
MACHINE_DURATION_US = 80_000.0
RECORDER_INTERVAL_US = 5_000.0


def _record_only(request, latency_us):
    """An ``on_latency`` sink that reads nothing back."""


def _machine_run(sink=False, **tiers):
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
        mark_scans=True, num_threads=6, seed=3, **tiers,
    )
    gen = testbed.drive(150_000, GET_SCAN_995_005, MACHINE_DURATION_US,
                        MACHINE_DURATION_US * 0.2).start()
    if sink:
        gen.on_latency = _record_only
    delivered, deliver = [], testbed.server.response_sink

    def record(request):
        delivered.append(request)
        deliver(request)

    testbed.server.response_sink = record
    machine = testbed.machine
    machine.run()
    trace = {
        "samples": list(gen.latency._by_tag.items()),
        "completed_at": [(r.rid, r.completed_at) for r in delivered],
        "drops": (dict(machine.nic.drops), dict(machine.netstack.drops),
                  [socket.drops for socket in testbed.server.sockets]),
    }
    return trace, machine, delivered


@functools.lru_cache(maxsize=None)
def _dark_machine():
    trace, machine, delivered = _machine_run()
    assert machine.obs.registry is None and machine.obs.probe is None
    # receipts inside the send window: booked inline, with no event
    inline = sum(1 for r in delivered if r.completed_at < MACHINE_DURATION_US)
    return trace, machine.engine.now, machine.engine.events_dispatched, inline


@pytest.mark.parametrize("tiers", [
    {"metrics": True}, {"spans": 1}, {"spans": 16}, {"accounting": True},
    {"metrics": True, "timeseries": RECORDER_INTERVAL_US}, {"sink": True},
], ids=["metrics", "spans1", "spans16", "accounting", "timeseries", "sink"])
def test_dark_machine_is_the_observed_machine(tiers):
    trace, now, events, inline = _dark_machine()
    lit_trace, machine, _delivered = _machine_run(**tiers)
    assert lit_trace == trace
    assert 0 < inline < len(trace["completed_at"])
    recorder = machine.obs.recorder
    if recorder is None:
        assert machine.engine.now == now
        # an on_latency sink makes each inline receipt an event
        assert machine.engine.events_dispatched \
            == events + (inline if tiers.get("sink") else 0)
    else:
        # The flight recorder's ticks are events, and its last one runs
        # past the last request: the clock ends at that tick.
        assert machine.engine.events_dispatched \
            == events + recorder.samples_taken
        assert machine.engine.now \
            == math.ceil(now / RECORDER_INTERVAL_US) * RECORDER_INTERVAL_US
