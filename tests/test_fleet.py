"""Tests for the fleet tier: sync staleness, steering, failover, qdiscs."""

import pytest
from hypothesis import given, settings, strategies as st

from test_net import app_fields, assert_reads_like, eager_layout, u16

from repro.cluster import (
    FLEET_MIX,
    STEERING_FACTORIES,
    STEER_LOCALITY,
    STEER_POWER_OF_TWO,
    STEER_TAIL_P2C,
    Fleet,
    FleetMachine,
    FleetRequest,
    JsqSteering,
    MapSyncBus,
    PowerOfKSteering,
)
from repro.constants import DROP, PASS
from repro.ebpf import ArrayMap, load_program
from repro.ebpf.insn import U64
from repro.experiments.figure_fleet import run_figure_fleet
from repro.faults import FaultKind, FaultPlan
from repro.net.packet import (
    APP_USER_OFF,
    PacketView,
    UDP_HEADER_LEN,
    build_payload,
)
from repro.obs.probe import Probe
from repro.qdisc import LAYER_SOCKET, Qdisc, compile_rank
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.workload.requests import GET


# ----------------------------------------------------------------------
# MapSyncBus: the staleness model
# ----------------------------------------------------------------------
class TestMapSyncBus:
    def test_snapshot_applies_after_propagation_delay(self):
        engine = Engine()
        truth = {"v": 1}
        replica = {}
        bus = MapSyncBus(engine, interval_us=50.0, delay_us=25.0,
                         active=lambda: engine.now < 200.0)
        bus.add_channel("v", snapshot=lambda: truth["v"],
                        apply=lambda value, stamp: replica.update(
                            v=value, stamp=stamp))
        bus.arm()
        # Tick at t=50 snapshots v=1; the apply lands at t=75.
        engine.run(until=60.0)
        assert replica == {}
        engine.run(until=80.0)
        assert replica == {"v": 1, "stamp": 50.0}

    def test_replica_sees_the_past_within_the_staleness_window(self):
        engine = Engine()
        truth = {"v": 0}
        replica = {"v": 0}
        bus = MapSyncBus(engine, interval_us=50.0, delay_us=25.0,
                         active=lambda: engine.now < 500.0)
        bus.add_channel("v", snapshot=lambda: truth["v"],
                        apply=lambda value, _stamp: replica.update(v=value))
        bus.arm()
        engine.schedule(60.0, lambda: truth.update(v=7))
        # At t=100 the latest applied snapshot was taken at t=50 (v=0):
        # the write at t=60 is invisible until the t=100 snapshot lands
        # at t=125.
        engine.run(until=110.0)
        assert replica["v"] == 0
        assert bus.staleness_us() == engine.now - 50.0
        engine.run(until=130.0)
        assert replica["v"] == 7

    def test_applies_preserve_registration_then_fifo_order(self):
        engine = Engine()
        order = []
        bus = MapSyncBus(engine, interval_us=10.0, delay_us=5.0,
                         active=lambda: engine.now < 25.0)
        bus.add_channel("a", snapshot=lambda: 0,
                        apply=lambda *_: order.append("a"))
        bus.add_channel("b", snapshot=lambda: 0,
                        apply=lambda *_: order.append("b"))
        bus.arm()
        engine.run()
        # Same-instant applies land in registration order, every tick.
        assert order[:2] == ["a", "b"] and order[2:4] == ["a", "b"]

    def test_bus_stops_rearming_when_inactive(self):
        engine = Engine()
        bus = MapSyncBus(engine, interval_us=10.0, delay_us=1.0,
                         active=lambda: False)
        bus.add_channel("x", snapshot=lambda: 0, apply=lambda *_: None)
        bus.arm()
        engine.run()
        assert bus.ticks == 1           # one tick, no re-arm, run ended
        assert engine.now == 11.0       # tick at 10 + last apply at 11

    @given(st.lists(st.integers(0, (1 << 70)), min_size=1, max_size=12))
    def test_array_map_assign_is_the_update_loop(self, values):
        bulk = ArrayMap("bulk", len(values))
        loop = ArrayMap("loop", len(values))
        slots = bulk._values
        bulk.assign(values)
        for key, value in enumerate(values):
            loop.update(key, value)
        assert bulk.items() == loop.items()
        assert bulk._values is slots            # in place: bound readers see it
        for key, value in enumerate(values):
            assert bulk.lookup(key) == loop.lookup(key) == value & U64
        for wrong in (values[:-1], values + [0]):
            with pytest.raises(ValueError):
                bulk.assign(wrong)
        assert bulk.items() == loop.items()     # a refused assign wrote nothing

    def test_rejects_bad_intervals(self):
        engine = Engine()
        with pytest.raises(ValueError):
            MapSyncBus(engine, interval_us=0.0)
        with pytest.raises(ValueError):
            MapSyncBus(engine, delay_us=-1.0)


# ----------------------------------------------------------------------
# PacketView: the lazy packet facade
# ----------------------------------------------------------------------
class TestPacketView:
    def test_lazy_materialization_matches_wire_layout(self):
        view = PacketView(GET, user_id=42, rid=9, dst_port=5000)
        assert view._data is None               # nothing built yet
        assert view.load(APP_USER_OFF, 8) == 42
        assert view._data is not None           # built on first load
        assert view.load(UDP_HEADER_LEN, 8) == GET

    def test_bounds_checked_like_a_real_packet(self):
        view = PacketView(GET)
        with pytest.raises(IndexError):
            view.load(view.length - 4, 8)

    @settings(max_examples=60, deadline=None)
    @given(app_fields, u16, st.booleans())
    def test_fleet_request_is_its_own_packet_facade(self, fields, dst_port,
                                                    late_port):
        rtype, user_id, _key_hash, rid = fields
        if late_port:
            # the generator's multi-port path: dst_port set after __init__
            request = FleetRequest(rid, rtype, 1.0, user_id=user_id)
            request.dst_port = dst_port
        else:
            request = FleetRequest(rid, rtype, 1.0, user_id=user_id,
                                   dst_port=dst_port)
        assert isinstance(request, PacketView) and request._data is None
        view = PacketView(rtype, user_id=user_id, rid=rid, dst_port=dst_port)
        assert request.data == view.data
        assert_reads_like(request, eager_layout(
            0, dst_port, build_payload(rtype, user_id, 0, rid)))
        # a per-machine rank program reads the port off the request itself
        assert READ_PORT.run(request) == READ_PORT.run(view) == dst_port


READ_PORT = load_program(compile_rank("""
def rank(pkt):
    if pkt_len(pkt) < 4:
        return PASS
    return load_u16(pkt, 2)
""", name="read_port"))


# ----------------------------------------------------------------------
# Steering policies
# ----------------------------------------------------------------------
class _FakeSwitch:
    def __init__(self, loads, down=()):
        self.num_machines = len(loads)
        self.load_view = list(loads)
        self.delay_view = [float(v) for v in loads]
        self._down = set(down)
        self._alive = [i for i in range(len(loads)) if i not in self._down]

    def alive_machines(self):
        return self._alive

    def is_alive(self, index):
        return index not in self._down


class TestSteering:
    def test_jsq_joins_the_shortest_replicated_queue(self):
        switch = _FakeSwitch([5, 2, 9, 2])
        request = FleetRequest(1, GET, 100.0, user_id=3)
        assert JsqSteering().pick(request, switch) == 1  # lowest index ties

    def test_jsq_skips_down_machines(self):
        switch = _FakeSwitch([5, 0, 9], down={1})
        request = FleetRequest(1, GET, 100.0)
        assert JsqSteering().pick(request, switch) == 0

    def test_power_of_k_drops_when_rack_is_dark(self):
        switch = _FakeSwitch([1, 1], down={0, 1})

        class _Rng:
            def randrange(self, n):  # pragma: no cover - never reached
                raise AssertionError("no candidates to sample")

        assert PowerOfKSteering(_Rng()).pick(
            FleetRequest(1, GET, 100.0), switch) == DROP

    def test_factories_cover_every_registered_name(self):
        fleet = Fleet(num_machines=4, seed=1, steering=None)
        for name, factory in STEERING_FACTORIES.items():
            policy = factory(fleet)
            assert hasattr(policy, "pick"), name


# ----------------------------------------------------------------------
# Programs at the ToR
# ----------------------------------------------------------------------
class TestSwitchPrograms:
    def test_power_of_two_program_reads_replicated_load_map(self):
        fleet = Fleet(num_machines=8, seed=3, steering="program_p2c")
        fleet.drive(duration_us=10_000.0, rps=150_000, num_users=1_000)
        fleet.run()
        assert fleet.completed == fleet.generator.offered > 0
        # The program's map is the switch's replica, refreshed by the bus.
        assert fleet.switch.load_map.lookup(0) is not None

    def test_locality_program_homes_users_until_overload(self):
        fleet = Fleet(num_machines=4, seed=3, steering=None)
        policy = fleet.deploy_steering_program(STEER_LOCALITY,
                                               name="locality_prog")
        fleet.install_steering(policy)
        # Load replica all-zero: every user must land on user_id % 4.
        for user in range(8):
            request = FleetRequest(user + 1, GET, 100.0, user_id=user)
            assert fleet.switch.pick(request) == user % 4

    def test_tail_program_prefers_the_lower_cost_machine(self):
        fleet = Fleet(num_machines=4, seed=3, steering=None,
                      latency_signals=True)
        policy = fleet.deploy_steering_program(STEER_TAIL_P2C,
                                               name="tail_prog")
        fleet.install_steering(policy)
        # Make machine 2 the obvious tail offender on the replica: the
        # two-choice draw picks it only when both candidates are it, so
        # its share collapses from 1/4 toward 1/16.
        fleet.switch.apply_p99([0, 0, 50_000, 0])
        picks = [fleet.switch.pick(FleetRequest(1, GET, 100.0))
                 for _ in range(400)]
        assert picks.count(2) / len(picks) < 0.15

    def test_tenant_isolation_at_the_switch(self):
        fleet = Fleet(num_machines=4, seed=3)
        fleet.install_steering(JsqSteering(), port=7000, owner="tenant_a")
        with pytest.raises(PermissionError):
            fleet.install_steering(JsqSteering(), port=7000,
                                   owner="tenant_b")


# ----------------------------------------------------------------------
# The merged hot path is the public statement of each rule
# ----------------------------------------------------------------------
STEER_CONST = """
def schedule(pkt):
    return OUTCOME
"""


class _Passes:
    name = "passes"

    def pick(self, request, switch):
        return None


class _SteerLog(Probe):
    """A probe that records every ``switch_steer``."""

    def __init__(self):
        super().__init__()
        self.steers = []

    def switch_steer(self, *args):
        self.steers.append(args)


class TestMergedPaths:
    @settings(max_examples=80, deadline=None)
    @given(outcome=st.sampled_from([PASS, DROP, 0, 1, 2, 3, 6]),
           down=st.sets(st.integers(0, 3)),
           port_rule=st.booleans(), default_passes=st.booleans(),
           user_id=st.integers(0, 1 << 32))
    def test_admit_steers_exactly_where_pick_says(
            self, outcome, down, port_rule, default_passes, user_id):
        fleet = Fleet(num_machines=4, seed=3, steering=None)
        program = fleet.deploy_steering_program(
            STEER_CONST, constants={"OUTCOME": outcome}, name="const")
        if port_rule:
            fleet.install_steering(program, port=7000, owner="alice")
            if default_passes:          # rule -> default -> fallback
                fleet.install_steering(_Passes())
        else:
            fleet.install_steering(program)
        for index in down:
            fleet.switch.mark_down(index)
        # a dark fleet holds no probe: install one that records steers
        fleet.probe = _SteerLog()
        steered = fleet.probe.steers

        def fresh():
            return FleetRequest(1, GET, 10.0, user_id=user_id, dst_port=7000)

        expected = fleet.switch.pick(fresh())
        request = fresh()
        fleet.admit(request)
        assert request.tenant == ("alice" if port_rule else None)
        policy = fleet.switch.policy_for(request)
        if expected is None:
            # the seam sees the shed too: it is the head-sampling point
            assert outcome == DROP or len(down) == 4
            assert steered == [(request, None, policy, False)]
            assert (request.machine, request.attempts) == (None, 0)
            assert (fleet.dropped, fleet.switch.dropped,
                    fleet.outstanding) == (1, 1, 0)
            return
        assert request.machine == expected and expected not in down
        assert fleet.switch.forwarded[expected] == 1
        assert steered == [(request, expected, policy, False)]
        fleet.resteer(request)          # failover walks the same cascade
        assert (request.machine, request.attempts) == (expected, 2)
        assert steered[1] == (request, expected, policy, True)

    def test_generator_draws_are_the_random_modules(self):
        # _arrive inlines rate_per_us, Random.randrange (the getrandbits
        # rejection loop; 1000 is not a power of two, so it does reject)
        # and Random.expovariate: replay all three through the library.
        fleet = Fleet(num_machines=2, seed=11, steering="flow_hash")
        gen = fleet.drive(duration_us=3_000.0, rps=500_000, num_users=1_000,
                          diurnal_period_us=3_000.0, diurnal_depth=0.5)
        seen = []
        fleet.admit = lambda request: seen.append(
            (request.rid, fleet.engine.now, request.user_id))
        fleet.run()
        streams = RngStreams(11)
        arrivals, users = streams.get("arrivals"), streams.get("users")
        now, expected = 0.0, []
        while True:
            gap = arrivals.expovariate(gen.rate_per_us(now))
            if now + gap >= 3_000.0:
                break
            now += gap
            expected.append((len(expected) + 1, now, users.randrange(1_000)))
        assert seen == expected and len(seen) > 500
        assert gen.done and gen.offered == len(seen)

    def test_generator_needs_a_user(self):
        fleet = Fleet(num_machines=2, seed=11)
        with pytest.raises(ValueError):
            fleet.drive(duration_us=1_000.0, rps=1_000, num_users=0)

    def test_generator_starts_once(self):
        # A second start() would begin a second arrival chain: 103
        # requests offered became 210.
        fleet = Fleet(num_machines=4, seed=1)
        gen = fleet.drive(duration_us=2_000.0, rps=50_000)
        with pytest.raises(RuntimeError):
            gen.start()
        fleet.run()
        assert gen.offered == fleet.completed == 103


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class TestFailover:
    def test_machine_kill_resteers_orphans_without_loss(self):
        plan = FaultPlan(seed=9).machine_kill(2, at_us=5_000.0)
        fleet = Fleet(num_machines=8, seed=5, steering="power_of_two",
                      metrics=True, faults=plan)
        fleet.drive(duration_us=20_000.0, rps=200_000, num_users=10_000)
        fleet.run()
        assert fleet.completed == fleet.generator.offered
        assert fleet.outstanding == 0
        assert fleet.switch.resteers > 0
        assert not fleet.machines[2].alive
        assert not fleet.switch.is_alive(2)
        # Injections are observable, like every single-machine fault.
        snapshot = {
            (r["app"], r["scope"], r["metric"]): r["value"]
            for r in fleet.obs.snapshot()
        }
        assert snapshot[("fleet", "faults", FaultKind.MACHINE_KILL)] == 1
        assert fleet.injector.injected == 1

    def test_restore_rejoins_the_candidate_set(self):
        plan = FaultPlan(seed=9).machine_kill(1, at_us=4_000.0,
                                              restore_at_us=10_000.0)
        fleet = Fleet(num_machines=4, seed=5, steering="power_of_two",
                      faults=plan)
        fleet.drive(duration_us=25_000.0, rps=120_000, num_users=1_000)
        fleet.run()
        assert fleet.machines[1].alive
        assert fleet.switch.is_alive(1)
        # The rebooted machine served traffic after its restore.
        assert fleet.machines[1].served > 0
        assert fleet.completed == fleet.generator.offered

    def test_restore_before_detection_still_resteers_the_orphans(self):
        # Restored 100 us into a 500 us detection window: the switch never
        # marks the machine down, but the kill's orphans must re-steer, or
        # they stay outstanding and the sync bus re-arms forever (the
        # ``until`` bounds that hang).
        plan = FaultPlan(seed=11).machine_kill(1, at_us=5_000.0,
                                               restore_at_us=5_100.0)
        fleet = Fleet(num_machines=4, workers_per_machine=2, seed=3,
                      steering="power_of_two", faults=plan)
        fleet.drive(duration_us=20_000.0, rps=60_000, num_users=500)
        fleet.run(until=200_000.0)
        offered = fleet.generator.offered
        assert offered == fleet.completed + fleet.dropped == 1151
        assert fleet.outstanding == 0 and fleet.engine.pending() == 0
        assert fleet.machines[1].orphans == []
        assert fleet.switch.resteers == 29
        assert fleet.switch.is_alive(1)

    def test_link_down_excludes_immediately_and_buffers_responses(self):
        plan = FaultPlan(seed=9).link_down(0, at_us=5_000.0,
                                           duration_us=5_000.0)
        fleet = Fleet(num_machines=3, seed=5, steering="jsq", faults=plan)
        fleet.drive(duration_us=20_000.0, rps=60_000, num_users=1_000)
        fleet.run()
        # The machine never died: no re-steers, no losses — responses
        # finished behind the dead link were buffered, then flushed.
        assert fleet.switch.resteers == 0
        assert fleet.completed == fleet.generator.offered
        assert fleet.machines[0].link_up
        assert fleet.switch.is_alive(0)

    def test_kill_behind_a_dead_link_books_the_held_responses(self):
        # Responses finished behind a dead link wait at the NIC; killing
        # the machine then loses them.  They must be booked as drops, or
        # they stay outstanding and the sync bus re-arms forever (the
        # ``until`` bounds that hang: a drained run ends long before it).
        plan = (FaultPlan(seed=9)
                .link_down(3, at_us=2_000.0, duration_us=5_000.0)
                .machine_kill(3, at_us=3_000.0))
        fleet = Fleet(num_machines=8, seed=5, faults=plan, metrics=True,
                      spans=1)
        fleet.drive(duration_us=12_000.0, rps=100_000)
        fleet.run(until=200_000.0)
        offered = fleet.generator.offered
        assert fleet.dropped == 3
        assert offered == fleet.completed + fleet.dropped == 1215
        assert fleet.outstanding == 0 and fleet.engine.pending() == 0
        assert fleet.sync.ticks < 400       # stopped with the work, at ~12 ms
        lost = fleet.obs.events.events(kind="fleet_drop")
        assert [e["reason"] for e in lost] == \
            ["held_response_lost"] * 3
        trees = fleet.obs.spans.trees()
        assert len(trees) == offered        # every tree closed
        assert [t["abort_reason"] for t in trees
                if not t["complete"]] == ["held_response_lost"] * 3

    def test_stale_completion_after_restore_completes_once(self):
        # Killed at 100 us mid-service (its completion was due at
        # 2,006 us) and restored at 200 us, before detection: the orphan
        # re-steers back at 600 us and starts over at 606 us.  The old
        # completion is stale; the new one books once, at 2,606 + wire.
        plan = FaultPlan(seed=1).machine_kill(0, at_us=100.0,
                                              restore_at_us=200.0)
        fleet = Fleet(num_machines=1, seed=1, steering="jsq", faults=plan)
        request = FleetRequest(1, GET, 2_000.0)
        fleet.admit(request)
        fleet.run()
        machine = fleet.machines[0]
        assert fleet.switch.resteers == 1 and request.attempts == 2
        assert machine.served == 1 and machine.busy == 0
        assert fleet.completed == 1 and fleet.outstanding == 0
        assert fleet.latency._samples == [2_611.0]
        assert request.completed_at == 2_611.0

    def test_fifo_backlog_drains_and_strands_in_arrival_order(self):
        def backlog():
            fleet = Fleet(num_machines=1, workers_per_machine=1, seed=5,
                          steering="jsq")
            requests = [FleetRequest(rid, GET, 1.0)
                        for rid in range(1, 10_002)]
            for request in requests:
                fleet.admit(request)
            fleet.engine.run(until=6.5)     # all delivered, one in service
            return fleet, requests

        fleet, requests = backlog()
        assert fleet.machines[0].queue_depth() == 10_000
        assert fleet.machines[0].load() == 10_001
        fleet.engine.run()
        finished = [r.completed_at for r in requests]
        assert finished == sorted(finished) and len(set(finished)) == 10_001
        assert fleet.completed == 10_001 and fleet.outstanding == 0

        fleet, requests = backlog()
        assert fleet.machines[0].kill() == requests
        assert fleet.machines[0].orphans == requests
        assert fleet.machines[0].load() == 0

    def test_requests_sharing_a_rid_are_scheduled_apart(self):
        # A machine's schedule is keyed by the request, not by its rid:
        # hand-built requests may repeat one.
        for tiers in ({}, {"metrics": True}):
            fleet = Fleet(num_machines=1, workers_per_machine=1, seed=5,
                          steering="jsq", **tiers)
            requests = [FleetRequest(7, GET, 10.0) for _ in range(3)]
            for request in requests:
                fleet.admit(request)
            fleet.run()
            assert [r.completed_at for r in requests] == [21.0, 31.0, 41.0]
            assert fleet.machines[0].served == 3

    def test_fleet_plan_is_inert_on_a_single_machine(self):
        # The same plan object can drive a Machine and a Fleet: the
        # machine-side injector skips fleet-scoped kinds entirely.
        from repro.machine import Machine

        plan = (FaultPlan(seed=9)
                .machine_kill(0, at_us=1_000.0)
                .link_down(1, at_us=1_000.0, duration_us=500.0))
        machine = Machine(seed=3, faults=plan)
        machine.run()
        assert machine.faults.injected == 0
        assert machine.engine.events_dispatched == 0


# ----------------------------------------------------------------------
# Qdisc composition
# ----------------------------------------------------------------------
class TestQdiscComposition:
    def test_per_machine_qdisc_orders_the_backlog(self):
        from repro.ebpf import load_program
        from repro.qdisc import compile_rank

        # Rank by request type: SCANs (type 2) sort after GETs (type 1),
        # read out of the PacketView bytes like any Syrup program.
        source = '''
def rank(pkt):
    if pkt_len(pkt) < 16:
        return PASS
    return load_u64(pkt, 8)
'''
        loaded = load_program(compile_rank(source, name="by_type"))

        def qdisc_factory(index):
            return Qdisc("fleet", LAYER_SOCKET, backend="pifo",
                         program=loaded)

        fleet = Fleet(num_machines=2, workers_per_machine=1, seed=5,
                      steering="jsq", qdisc_factory=qdisc_factory)
        fleet.drive(duration_us=30_000.0, rps=40_000, num_users=100,
                    mix=FLEET_MIX)
        fleet.run()
        assert fleet.completed == fleet.generator.offered > 0
        ranked = sum(m.qdisc.enqueues for m in fleet.machines)
        assert ranked > 0
        for machine in fleet.machines:
            assert machine.qdisc.runtime_faults == 0

    def test_queue_cap_sheds_with_fifo_droptail(self):
        fleet = Fleet(num_machines=1, workers_per_machine=1, seed=5,
                      steering="jsq", queue_cap=2)
        fleet.drive(duration_us=20_000.0, rps=30_000, num_users=10)
        fleet.run()
        assert fleet.dropped > 0
        assert fleet.completed + fleet.dropped == fleet.generator.offered


# ----------------------------------------------------------------------
# Latency signals: per-machine sketches feeding the ToR p99 replica
# ----------------------------------------------------------------------
class TestLatencySignals:
    def _run(self, **overrides):
        kwargs = dict(num_machines=8, workers_per_machine=2, seed=7,
                      steering="program_tail", latency_signals=True)
        kwargs.update(overrides)
        fleet = Fleet(**kwargs)
        fleet.drive(duration_us=100_000.0, rps=60_000, num_users=5_000)
        fleet.run()
        return fleet

    def test_signals_are_off_by_default(self):
        fleet = Fleet(num_machines=4, seed=3, steering="power_of_two")
        fleet.drive(duration_us=10_000.0, rps=60_000, num_users=500)
        fleet.run()
        assert fleet.machine_sketches is None
        assert fleet.switch.p99_view == [0, 0, 0, 0]
        assert fleet.completed > 0

    def test_completions_populate_sketches_and_the_replica(self):
        fleet = self._run()
        assert fleet.completed == fleet.generator.offered > 0
        # every machine saw traffic, every sketch saw completions
        assert all(s.count > 0 for s in fleet.machine_sketches)
        # the sync bus pushed per-machine p99s to the switch replica
        assert all(v > 0 for v in fleet.switch.p99_view)
        for index, sketch in enumerate(fleet.machine_sketches):
            assert fleet.machine_sketches[index].vmax \
                >= fleet.switch.p99_view[index] > 0
        # the replica trails the truth by at most the sync staleness
        assert fleet.sync.staleness_us() <= 2 * fleet.sync.interval_us

    def test_tail_steering_is_deterministic(self):
        a, b = self._run(), self._run()
        assert a.latency._samples == b.latency._samples
        assert a.switch.p99_view == b.switch.p99_view
        assert [m.served for m in a.machines] \
            == [m.served for m in b.machines]
        assert a.engine.events_dispatched == b.engine.events_dispatched


# ----------------------------------------------------------------------
# Determinism and observability
# ----------------------------------------------------------------------
def _run_once(**overrides):
    kwargs = dict(num_machines=16, seed=5, steering="power_of_two",
                  faults=FaultPlan(seed=9).machine_kill(
                      3, at_us=8_000.0, restore_at_us=16_000.0))
    kwargs.update(overrides)
    fleet = Fleet(**kwargs)
    fleet.drive(duration_us=25_000.0, rps=220_000, num_users=50_000,
                diurnal_period_us=25_000.0, diurnal_depth=0.4)
    fleet.run()
    return fleet


def _flap_and_kill(seed, **overrides):
    """An 8-machine rack at 60 K rps: three links go down at 3 ms, each
    holding its machine's responses until it comes back (5, 5.5, 6 ms),
    and machine 2 dies at 4 ms (restored at 6).  On each seed some
    service ends within a wire of a flush, so a flush booked later than
    it would arrive reorders the samples.  Returns the fleet and every
    request it admitted, in order."""
    plan = (FaultPlan(seed=9)
            .link_down(0, at_us=3_000.0, duration_us=2_000.0)
            .link_down(5, at_us=3_000.0, duration_us=2_500.0)
            .link_down(6, at_us=3_000.0, duration_us=3_000.0)
            .machine_kill(2, at_us=4_000.0, restore_at_us=6_000.0))
    fleet = Fleet(num_machines=8, seed=seed, faults=plan, **overrides)
    requests, admit = [], fleet.admit

    def record(request):
        requests.append(request)
        admit(request)

    fleet.admit = record
    fleet.drive(duration_us=10_000.0, rps=60_000, num_users=1_000)
    fleet.run()
    return fleet, requests


#: sha256 of ``spans.trees()`` plus the tracer's four counters for
#: ``test_fleet_span_trees_are_pinned``.  Regenerate only in a change
#: that alters what a fleet span tree records, and say why here.
FLEET_SPANS_DIGEST = \
    "95e6dbbd3bd269fc4e6cd4b614cc281c373ccd913be87f7c982aee2c848a0035"


class TestDeterminismAndObs:
    def test_paired_runs_are_bit_identical(self):
        a, b = _run_once(), _run_once()
        assert a.completed == b.completed
        assert a.switch.resteers == b.switch.resteers
        assert a.latency._samples == b.latency._samples
        assert [m.served for m in a.machines] \
            == [m.served for m in b.machines]
        assert a.engine.events_dispatched == b.engine.events_dispatched

    def test_sliced_run_equals_one_run(self):
        # Fleet() arms the fault plan, drive() starts the generator and
        # run() only arms the tick loops: slices replay one run.
        def outcome(*untils):
            fleet = Fleet(num_machines=4, workers_per_machine=2, seed=3,
                          steering="power_of_two", latency_signals=True,
                          metrics=True, timeseries=1_000.0,
                          faults=FaultPlan(seed=9).machine_kill(
                              1, at_us=6_000.0, restore_at_us=12_000.0))
            fleet.drive(duration_us=20_000.0, rps=60_000, num_users=500)
            for until in untils:
                fleet.run(until=until)
            fleet.run()
            return (fleet.generator.offered, fleet.completed,
                    fleet.engine.events_dispatched, fleet.latency.p99(),
                    fleet.obs.recorder.samples_taken)

        assert outcome(5_000.0, 10_000.0) == outcome()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dark_response_hop_books_what_its_event_would(self, seed,
                                                           monkeypatch):
        # A dark fleet books each response where service ends and
        # schedules each service at steer time; a traced one (spans=1)
        # posts the hop and the arrival.  Both must record the same
        # samples in the same order (mean() is an order-dependent sum),
        # flushed held responses included, and end the run at the same
        # instant.
        landed = []
        land = FleetMachine._land
        monkeypatch.setattr(FleetMachine, "_land", lambda machine, request: (
            landed.append(request), land(machine, request)))
        dark, dark_requests = _flap_and_kill(seed)
        lit, lit_requests = _flap_and_kill(seed, spans=1)
        assert dark._dark and not lit._dark
        assert dark.switch.resteers > 0 and dark.dropped == 0
        assert dark.latency._samples == lit.latency._samples
        assert list(dark.latency._by_tag.items()) \
            == list(lit.latency._by_tag.items())
        assert [(r.rid, r.completed_at) for r in dark_requests] \
            == [(r.rid, r.completed_at) for r in lit_requests]
        assert dark.engine.now == lit.engine.now
        assert dark.sync.ticks == lit.sync.ticks
        assert [m.served for m in dark.machines] \
            == [m.served for m in lit.machines]
        assert dark.fleet_view() == lit.fleet_view()
        # one event fewer for each response and for each request
        # scheduled at steer (every forward but those that landed by
        # event: steered at the corpse, or on the wire at the kill), and
        # nothing else
        assert dark.completed == dark.generator.offered
        assert lit.engine.events_dispatched - dark.engine.events_dispatched \
            == dark.completed + sum(dark.switch.forwarded) - len(landed)

    def test_observability_does_not_change_results(self):
        plain = _run_once()
        observed = _run_once(metrics=True, timeseries=True, spans=10)
        assert plain.latency._samples == observed.latency._samples
        assert [m.served for m in plain.machines] \
            == [m.served for m in observed.machines]

    def test_fleet_spans_cover_the_request_path(self):
        fleet = _run_once(spans=25)
        trees = fleet.obs.spans.trees(complete=True)
        assert trees
        names = {s["name"] for t in trees for s in t["spans"]}
        assert {"switch_steer", "xnet_wait", "service"} <= names
        steer = next(s for t in trees for s in t["spans"]
                     if s["name"] == "switch_steer")
        assert steer["attrs"]["policy"] == "power_of_k"
        assert "machine" in steer["attrs"]

    def test_fleet_span_trees_are_pinned(self):
        """Every request traced through every fleet seam: queueing, a
        kill restored after detection (re-steers, orphaned ``service`` and
        ``machine_queue`` spans), a link flap holding responses, and a
        port rule shedding a quarter of the traffic — byte for byte."""
        import hashlib
        import json

        plan = (FaultPlan(seed=11)
                .machine_kill(1, at_us=4_000.0, restore_at_us=9_000.0)
                .link_down(2, at_us=5_000.0, duration_us=2_000.0))
        fleet = Fleet(num_machines=4, workers_per_machine=2, seed=3,
                      steering="power_of_two", spans=1, faults=plan)
        shed = fleet.deploy_steering_program(
            STEER_CONST, constants={"OUTCOME": DROP}, name="shed")
        fleet.install_steering(shed, port=7001, owner="bravo")
        fleet.drive(duration_us=20_000.0, rps=48_000, num_users=500,
                    ports=(7000, 7000, 7000, 7001))
        fleet.run(until=200_000.0)
        spans = fleet.obs.spans
        assert (fleet.generator.offered, fleet.completed, fleet.dropped,
                fleet.switch.resteers) == (906, 670, 236, 14)
        document = [spans.trees(), spans.seen, spans.sampled,
                    spans.completed_count, spans.aborted_count]
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()).hexdigest()
        assert digest == FLEET_SPANS_DIGEST

    def test_flight_recorder_probe_publishes_fleet_load(self):
        fleet = _run_once(metrics=True, timeseries=2_000.0)
        recorder = fleet.obs.recorder
        assert recorder.points("fleet", "machine", "load_0")
        assert recorder.points("fleet", "sync", "staleness_us")
        assert recorder.points("fleet", "fleet", "outstanding")

    def test_fleet_view_is_json_safe(self):
        import json

        fleet = _run_once()
        view = fleet.fleet_view()
        json.dumps(view)
        assert view["machines"] == 16
        assert view["completed"] == fleet.completed
        assert view["steering"] == "power_of_two"


# ----------------------------------------------------------------------
# The experiment harness (miniature figure_fleet)
# ----------------------------------------------------------------------
def test_figure_fleet_miniature():
    table = run_figure_fleet(
        variants=("random", "power_of_two", "sed"),
        num_machines=12, rps=140_000, num_users=20_000,
        duration_us=40_000.0, warmup_us=8_000.0, seed=7,
    )
    rows = {r["steering"]: r for r in table}
    assert set(rows) == {"random", "power_of_two", "sed"}
    for row in table:
        assert row["completed"] == row["offered"] > 0
        assert row["resteers"] > 0          # the mid-run kill fired
    assert rows["power_of_two"]["p99_us"] < rows["random"]["p99_us"]
