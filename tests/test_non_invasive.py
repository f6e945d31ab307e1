"""Observation is non-invasive on the fleet, request by request.

A dark :class:`~repro.cluster.fleet.Fleet` (no probe, registry or latency
sketch) takes short cuts a lit one cannot: it books each response where
service ends, with no event, and on plain FIFO machines it schedules each
request's service when the switch steers it (the FIFO multi-server
recursion over the workers' free times), so the machine arrival is no
event either.  A fleet with ``spans=1`` or ``metrics=True`` takes the
event path for both.  Observing must not change what the rack does: on
generated kill, restore and link-flap timings the two must agree on every
latency sample in booking order, every ``completed_at``, every drop and
its reason, the final clock, the sync ticks, per-machine ``served`` and
``fleet_view()`` — and the dark run's events must be lower by exactly
what it folded.

The timings straddle failover detection (a restore before and after it),
kill a machine at the very instant a request lands on it, and restore a
machine inside the wire window, while requests steered at it are still
landing: those arrive by event, and every later steer to that machine
must wait behind them (``FleetMachine._inflight``), or FIFO order breaks.

The single-machine half of the same promise (``Machine`` tiers, client
legs) is not here yet.
"""

from hypothesis import example, given, settings, strategies as st

from repro.cluster import Fleet
from repro.cluster.fleet import (
    DEFAULT_FAILOVER_DETECT_US,
    DEFAULT_FORWARD_US,
    DEFAULT_WIRE_US,
    FleetMachine,
)
from repro.faults import FaultPlan

HOP_US = DEFAULT_FORWARD_US + DEFAULT_WIRE_US
DETECT_US = DEFAULT_FAILOVER_DETECT_US
DURATION_US = 4_000.0
MEAN_SERVICE_US = 240.0         # FLEET_MIX: 90% GETs ~200 us, 10% SCANs ~800

#: The observed configurations: each forces the event path for the
#: arrival and the response hop.
LIT = ({"spans": 1}, {"metrics": True})


def _run(shape, kills, flaps, **tiers):
    """One rack run; returns the fleet, its admitted requests, its drops
    ``(rid, reason, now)`` and the rids that landed by ``_land``."""
    machines, workers, seed, rps = shape
    plan = FaultPlan(seed=1)
    for machine, at_us, restore_at_us in kills:
        plan.machine_kill(machine, at_us=at_us, restore_at_us=restore_at_us)
    for machine, at_us, duration_us in flaps:
        plan.link_down(machine, at_us=at_us, duration_us=duration_us)
    fleet = Fleet(num_machines=machines, workers_per_machine=workers,
                  seed=seed, faults=plan, **tiers)
    requests, drops, landed = [], [], []
    admit, drop = fleet.admit, fleet.drop

    def record_admit(request):
        requests.append(request)
        admit(request)

    def record_drop(request, reason):
        drops.append((request.rid, reason, fleet.engine.now))
        drop(request, reason)

    fleet.admit, fleet.drop = record_admit, record_drop
    land = FleetMachine._land

    def counted_land(machine, request):
        landed.append(request.rid)
        land(machine, request)

    FleetMachine._land = counted_land
    try:
        fleet.drive(duration_us=DURATION_US, rps=rps, num_users=2_000)
        fleet.run(until=DURATION_US * 20)
    finally:
        FleetMachine._land = land
    assert fleet.outstanding == 0 and fleet.engine.pending() == 0
    return fleet, requests, drops, landed


def _trace(fleet, requests, drops):
    return {
        "samples": fleet.latency._samples,
        "by_tag": list(fleet.latency._by_tag.items()),
        "completed_at": [(r.rid, r.completed_at) for r in requests],
        "drops": drops,
        "now": fleet.engine.now,
        "ticks": fleet.sync.ticks,
        "served": [m.served for m in fleet.machines],
        "view": fleet.fleet_view(),
    }


@st.composite
def scenarios(draw):
    machines = draw(st.integers(2, 8))
    workers = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    utilisation = draw(st.floats(0.5, 1.2))
    rps = int(utilisation * machines * workers * 1e6 / MEAN_SERVICE_US)
    shape = (machines, workers, seed, rps)
    flaps = draw(st.lists(st.tuples(
        st.integers(0, machines - 1),
        st.floats(0.0, DURATION_US),
        st.one_of(st.floats(1.0, HOP_US), st.floats(HOP_US, 3_000.0)),
    ), max_size=2))
    # Where requests land, flaps included: the run is the same up to the
    # first kill, so a kill drawn from these hits a landing instant.
    _fleet, admitted, _drops, _landed = _run(shape, (), flaps)
    landings = [(r.machine, r.sent_at + HOP_US) for r in admitted
                if r.machine is not None and r.sent_at < DURATION_US * 0.8]
    machine, landing = draw(st.sampled_from(landings or [(0, 1_000.0)]))
    # at the landing itself, or up to a hop before it (still on the wire)
    at_us = landing - draw(st.one_of(st.just(0.0), st.floats(0.0, HOP_US)))
    restore = draw(st.one_of(
        st.none(),
        st.floats(0.01, HOP_US),                    # inside the wire window
        st.floats(HOP_US, DETECT_US - 1.0),         # before detection
        st.just(DETECT_US),                         # with it
        st.floats(DETECT_US + 1.0, 2_000.0),        # after it
    ))
    kills = [(machine, at_us, None if restore is None else at_us + restore)]
    others = draw(st.lists(st.tuples(
        st.integers(0, machines - 1),
        st.floats(0.0, DURATION_US),
        st.one_of(st.none(), st.floats(0.01, 2_000.0)),
    ), max_size=1))
    kills += [(m, at, None if back is None else at + back)
              for m, at, back in others]
    return shape, kills, flaps


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
# Restored as detection fires: the steers made while machine 0 was down
# land by event after the restore, and a steer scheduled ahead of them
# would take the one worker out of arrival order.
@example(scenario=((2, 1, 3, 8_333),
                   [(0, 425.94188775314973, 925.9418877531498)], []))
def test_dark_fleet_is_the_observed_fleet(scenario):
    shape, kills, flaps = scenario
    dark, dark_requests, dark_drops, landed = _run(shape, kills, flaps)
    assert dark._direct
    expected = _trace(dark, dark_requests, dark_drops)
    forwarded = sum(dark.switch.forwarded)
    for tiers in LIT:
        lit, lit_requests, lit_drops, lit_landed = _run(
            shape, kills, flaps, **tiers)
        assert not lit._dark and lit_landed == []
        assert _trace(lit, lit_requests, lit_drops) == expected
        # Folded, and nothing else: each booked response, and each
        # forward whose landing took no event (a kill sends the requests
        # still on the wire, and a dead machine's steers, by ``_land``).
        assert sum(lit.switch.forwarded) == forwarded
        assert (lit.engine.events_dispatched
                - dark.engine.events_dispatched) \
            == dark.completed + forwarded - len(landed)
