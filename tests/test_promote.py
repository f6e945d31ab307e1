"""Promotion pipeline tests: shadow deployment, canary split, SLO gates.

Covers the full robustness tentpole (docs/robustness.md "Promotion
lifecycle"):

- the deterministic cohort split and its stamp-once contract (per-port
  ToR rules must never double-hash a canary flow),
- the decision diff bookkeeping,
- the end-to-end state machine: shadow -> canary -> active with
  last-known-good kept for demotion, and every rejection path (shadow
  fault, canary fault under fire, canary p99 blowout),
- the figure_canary acceptance story (good candidate auto-promotes,
  subtly-broken one auto-rejected at canary, live SLO never breached),
- the **no-op audit**: a run with no shadow deployments allocates not a
  single promotion object and a shadow-only run is bit-identical to a
  vanilla run (verdicts recorded, never enforced).
"""

import pytest

from repro import FaultPlan, Hook
from repro.cluster import Fleet, FleetRequest, JsqSteering, ShadowSteering
from repro.constants import DROP, PASS
from repro.core.promote import (
    STAGE_CODES,
    CanaryController,
    CanarySplit,
    DecisionDiff,
    PromotionRecord,
    ShadowTap,
    cohort_bucket,
    hook_label,
    rank_label,
    steer_label,
)
from repro.experiments.figure8 import stage_dynamic
from repro.experiments.figure_canary import (
    SLO_GET_P99_US,
    run_figure_canary,
)
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.net.packet import FiveTuple, Packet
from repro.policies.builtin import ROUND_ROBIN
from repro.qdisc.policies import SRPT_BY_SIZE, SRPT_TIERED
from repro.workload.mixes import GET_SCAN_995_005
from repro.workload.requests import GET


# ----------------------------------------------------------------------
# Cohort split
# ----------------------------------------------------------------------
def test_cohort_bucket_is_deterministic_salted_and_roughly_uniform():
    assert cohort_bucket(42) == cohort_bucket(42)
    assert all(0 <= cohort_bucket(k) < 100 for k in range(1000))
    # the salt reshuffles membership
    assert any(cohort_bucket(k, salt=1) != cohort_bucket(k, salt=2)
               for k in range(100))
    # a 10% cohort is actually ~10% of keys
    in_cohort = sum(1 for k in range(10_000) if cohort_bucket(k) < 10)
    assert 800 <= in_cohort <= 1200


def test_canary_split_stamps_the_request_once():
    request = FleetRequest(1, GET, 10.0, user_id=42)
    first = CanarySplit(salt=0xA)
    bucket = first.bucket(request)
    assert request.cohort == bucket == cohort_bucket(42, salt=0xA)
    # a later layer with a *different* salt reads the stamp — this is
    # the no-double-hash contract per-port ToR rules rely on
    assert CanarySplit(salt=0xB).bucket(request) == bucket
    assert request.cohort == bucket


def test_canary_split_stamps_through_the_packet_request_backref():
    class Flow:
        src_ip, src_port = 0xC0A80101, 777

    class Packet:
        flow = Flow()
        request = FleetRequest(2, GET, 10.0, user_id=7)

    packet = Packet()
    packet.request.cohort = None
    bucket = CanarySplit(salt=3).bucket(packet)
    key = ((0xC0A80101 & 0xFFFFFFFF) << 16) ^ 777
    assert bucket == cohort_bucket(key, salt=3)
    assert packet.request.cohort == bucket


def test_canary_split_without_flow_identity_is_never_in_cohort():
    class Bare:
        pass

    assert CanarySplit().bucket(Bare()) == 100  # >= any canary_pct


def test_decision_diff_bookkeeping():
    diff = DecisionDiff()
    assert diff.agreement() == 1.0 and diff.mean_cycles() == 0.0
    diff.record(5, 5, "rank", "rank", 10.0)
    diff.record(5, 7, "rank", "rank", 30.0)
    diff.record(PASS, DROP, "pass", "drop", 0.0)   # shadow would drop
    diff.record(DROP, PASS, "shed", "rank", 0.0)   # shadow would keep
    assert diff.decisions == 4 and diff.agreements == 1
    assert diff.would_drop == 1 and diff.would_keep == 1
    snap = diff.snapshot()
    assert snap["agreement"] == 0.25
    assert snap["confusion"]["rank->rank"] == 2
    assert snap["mean_cycles"] == 10.0


def test_verdict_labels():
    assert hook_label(PASS) == "pass" and hook_label(DROP) == "drop"
    assert hook_label(3) == "steer"
    assert rank_label(PASS) == "fifo" and rank_label(DROP) == "shed"
    assert rank_label(42_000) == "rank"
    assert steer_label(None) == "pass" and steer_label(2) == "steer"


# ----------------------------------------------------------------------
# End-to-end promotion on a live qdisc testbed
# ----------------------------------------------------------------------
def _promotion_testbed(seed=3, faults=None):
    return RocksDbTestbed(
        qdisc=(SRPT_BY_SIZE, "socket", "pifo"), mark_sizes=True,
        num_threads=4, seed=seed, metrics=True, signals=2_000.0,
        faults=faults,
    )


def _run_with_shadow(testbed, load, duration_us, deploy_at_us, **shadow):
    """Drive one load point, submitting the candidate mid-run."""
    gen = testbed.drive(load, GET_SCAN_995_005, duration_us,
                        duration_us * 0.25).start()
    holder = {}

    def deploy():
        holder["record"] = testbed.app.deploy_shadow(
            layer="socket", constants={"SHORT_US": 100}, **shadow
        )

    def on_latency(request, latency_us):
        record = holder.get("record")
        if record is not None and request.rtype == GET:
            record.controller.observe(request, latency_us)

    gen.on_latency = on_latency
    testbed.machine.engine.at(deploy_at_us, deploy)
    testbed.machine.run()
    return gen, holder["record"]


def test_good_candidate_walks_shadow_canary_active():
    testbed = _promotion_testbed()
    gen, record = _run_with_shadow(
        testbed, 150_000, 120_000.0, 30_000.0,
        policy=SRPT_TIERED, name="tiered",
        min_decisions=200, min_canary=50, agreement_min=0.90,
        latency_ratio=5.0, hold_ticks=1, probation_ticks=2,
    )
    machine = testbed.machine
    assert record.stage == "active"
    assert [stage for _, stage, _ in record.history] == \
        ["shadow", "canary", "active"]
    assert record.outcome_reason is None

    # the candidate IS the deployed program now; the displaced program
    # is kept as last-known-good for demotion
    deployed = record.deployed
    assert deployed.program is record.candidate
    assert deployed.last_good is not None
    for qdisc in deployed.qdiscs:
        assert qdisc.program is record.candidate
        assert qdisc.shadow is None  # taps cleared on promote

    # one unified lifecycle schema for every stage transition
    events = [e for e in machine.obs.events.events(kind="lifecycle")
              if e.get("candidate") == "tiered"]
    assert [(e["action"], e["reason"]) for e in events] == [
        ("shadow", "deployed"),
        ("canary", "shadow_gates_passed"),
        ("promote", "slo_gates_passed"),
    ]
    assert all({"action", "reason", "app", "hook", "fd", "state"}
               <= set(e) for e in events)

    registry = machine.obs.registry
    for counter, value in (("shadow_deploys", 1), ("canary_starts", 1),
                           ("promotions", 1)):
        assert registry.counter("rocksdb", "syrupd", counter).value == value
    assert registry.gauge("promo", "tiered", "stage").value == \
        STAGE_CODES["active"]
    assert registry.gauge("promo", "tiered", "decisions").value == \
        record.diff.decisions

    # terminal: the controller unregistered itself from the bus
    assert "promo:tiered" not in \
        [name for name, _ in machine.signals.controllers]
    snapshot, = machine.syrupd.promotions()
    assert snapshot["stage"] == "active"
    assert snapshot["canary_enforced"] == record.canary_enforced > 0
    assert gen.completed_in_window() > 0


def _fingerprint(testbed, gen):
    return (
        tuple(gen.latency._samples),
        gen.drop_fraction(),
        dict(testbed.machine.netstack.drops),
        testbed.machine.now,
    )


def test_shadow_verdicts_are_recorded_never_enforced():
    """A shadow-only run is bit-identical to a vanilla run."""
    def vanilla():
        testbed, gen = run_point(
            lambda: _promotion_testbed(), 100_000, GET_SCAN_995_005,
            60_000.0, 15_000.0,
        )
        return _fingerprint(testbed, gen)

    testbed = _promotion_testbed()
    gen, record = _run_with_shadow(
        testbed, 100_000, 60_000.0, 20_000.0,
        policy=SRPT_TIERED, name="held",
        min_decisions=10**9,  # gate never satisfied: stays in shadow
    )
    assert record.stage == "shadow"
    assert record.diff.decisions > 0
    assert record.diff.agreement() > 0.9  # tiered agrees on the GETs
    assert record.canary_enforced == 0
    assert _fingerprint(testbed, gen) == vanilla()


def test_shadow_of_the_active_text_shares_its_image_not_its_state():
    constants = {"NUM_THREADS": 4}
    testbed = RocksDbTestbed(
        policy=(ROUND_ROBIN, Hook.SOCKET_SELECT, constants), num_threads=4,
        seed=3,
    )
    machine, app = testbed.machine, testbed.app
    testbed.drive(50_000, GET_SCAN_995_005, 10_000.0, 0.0).start()
    machine.run()
    active = machine.syrupd.status()[0]
    assert active["invocations"] > 32  # past its profiling window

    record = app.deploy_shadow(ROUND_ROBIN, hook=Hook.SOCKET_SELECT,
                               constants=constants, min_decisions=10**9)
    candidate, live = record.candidate, record.deployed.program
    assert candidate is not live and candidate.image is live.image
    # ... but its own globals, RNG stream and cycle profile
    assert candidate.globals == [0] and live.globals != [0]
    assert candidate.rng is machine.streams.get(
        f"shadow/{app.name}/{Hook.SOCKET_SELECT}")
    assert candidate.rng is not live.rng
    assert candidate.invocations == 0
    assert candidate.cycle_estimate == float(live.image.static_cycles)
    assert live.cycle_estimate != candidate.cycle_estimate

    before = list(live.globals)
    site = machine.netstack.socket_select_hook
    site.decide(Packet(FiveTuple(1, 2, 3, testbed.port, 17), b"x" * 16))
    # one input, one run each: the tap advanced the candidate from 0,
    # the live program from where it was
    assert candidate.invocations == 1 and candidate.globals == [1]
    assert live.globals == [before[0] + 1]


def test_shadow_fault_rejects_candidate_without_touching_live_traffic():
    plan = FaultPlan(seed=9).vmfault(
        1.0, app="rocksdb", hook="shadow:qdisc:socket",
        start_us=30_000.0, until_us=32_000.0,
    )
    testbed = _promotion_testbed(faults=plan)
    gen, record = _run_with_shadow(
        testbed, 100_000, 60_000.0, 20_000.0,
        policy=SRPT_TIERED, name="faulty", min_decisions=10**9,
    )
    assert record.stage == "rejected"
    assert record.outcome_reason == "shadow_fault"
    assert record.diff.shadow_faults > 0
    # contained: the active deployment never noticed
    deployed = record.deployed
    assert deployed.state == "active"
    assert deployed.program is not record.candidate
    assert deployed.last_good is None
    for qdisc in deployed.qdiscs:
        assert qdisc.shadow is None
    rejects = [e for e in testbed.machine.obs.events.events(kind="lifecycle")
               if e["action"] == "reject"]
    assert rejects and rejects[0]["reason"] == "shadow_fault"
    assert testbed.machine.obs.registry.counter(
        "rocksdb", "syrupd", "shadow_rejects"
    ).value == 1
    assert gen.drop_fraction() == 0.0
    assert gen.completed_in_window() > 0


# ----------------------------------------------------------------------
# Rollback under fire: the freshly-promoted policy faults while a second
# candidate is mid-canary — last-known-good wins, no request lost
# ----------------------------------------------------------------------
def test_rollback_under_fire_last_known_good_wins():
    # shadow-loaded programs carry the fault scope "shadow:qdisc:socket";
    # the promoted program KEEPS that scope, so one windowed spec hits
    # both the now-active promoted policy and the mid-canary contender
    plan = FaultPlan(seed=5).vmfault(
        1.0, app="rocksdb", hook="shadow:qdisc:socket",
        start_us=50_000.0, until_us=52_000.0,
    )
    testbed = _promotion_testbed(faults=plan)
    machine = testbed.machine
    original = machine.syrupd.deployed[0].program  # SRPT_BY_SIZE
    gen = testbed.drive(100_000, GET_SCAN_995_005, 100_000.0,
                        25_000.0).start()
    holder = {}

    def deploy_first():
        holder["first"] = testbed.app.deploy_shadow(
            SRPT_TIERED, layer="socket", constants={"SHORT_US": 100},
            name="first", min_decisions=100, min_canary=20,
            agreement_min=0.5, latency_ratio=100.0, hold_ticks=1,
            probation_ticks=1,
        )

    def deploy_contender():
        holder["contender"] = testbed.app.deploy_shadow(
            SRPT_TIERED, layer="socket", constants={"SHORT_US": 100},
            name="contender", min_decisions=50, min_canary=10**9,
            agreement_min=0.0, hold_ticks=1,
        )

    def on_latency(request, latency_us):
        for record in holder.values():
            record.controller.observe(request, latency_us)

    gen.on_latency = on_latency
    machine.engine.at(20_000.0, deploy_first)    # promoted by ~30ms
    machine.engine.at(40_000.0, deploy_contender)  # canary at ~44ms
    machine.run()

    first, contender = holder["first"], holder["contender"]
    deployed = first.deployed
    # the first candidate made it all the way to active...
    assert first.stage == "active"
    # ...then faulted during 50-52ms: rolled back to last-known-good
    assert deployed.state == "active"
    assert deployed.program is not first.candidate
    assert deployed.program is original
    assert deployed.health.rollbacks == 1
    for qdisc in deployed.qdiscs:
        assert qdisc.program is deployed.program
    # the contender faulted in the same window: auto-rejected, and its
    # fault was charged to the promotion record, not the health window
    assert contender.stage == "rejected"
    assert contender.outcome_reason in ("canary_fault", "shadow_fault")
    assert contender.total_faults() > 0
    actions = [(e["action"], e["reason"]) for e in
               machine.obs.events.events(kind="lifecycle")]
    assert ("promote", "slo_gates_passed") in actions
    assert ("rollback", "runtime_fault") in actions
    assert ("reject", contender.outcome_reason) in actions
    # no request lost: a faulting rank function falls back to the FIFO
    # rank — ordering is advisory, the element is never dropped
    assert gen.drop_fraction() == 0.0
    assert gen.completed_in_window() > 0


# ----------------------------------------------------------------------
# Canary split composes with fleet steering (2-tenant, no double-hash)
# ----------------------------------------------------------------------
def test_two_tenant_fleet_never_double_hashes_canary_flows():
    fleet = Fleet(num_machines=8, seed=5, steering="flow_hash")
    fleet.install_steering(JsqSteering(), port=7000, owner="tenant_a")
    w_port = fleet.deploy_shadow_steering(
        JsqSteering(), port=7000, owner="tenant_a", salt=0xA, name="a",
    )
    w_default = fleet.deploy_shadow_steering(JsqSteering(), salt=0xB,
                                             name="b")
    assert isinstance(w_port, ShadowSteering)
    w_port.stage = w_default.stage = "canary"

    in_cohort = 0
    for user in range(200):
        request = FleetRequest(user, GET, 10.0, user_id=user,
                               dst_port=7000)
        assert fleet.switch.pick(request) is not None
        # stamped exactly once, by the first wrapper on the path (the
        # tenant's per-port rule) — the rack default's different salt
        # must NOT re-hash the flow into a different cohort
        assert request.cohort == cohort_bucket(user, salt=0xA)
        assert w_default.split.bucket(request) == request.cohort
        in_cohort += request.cohort < 10
    assert 5 <= in_cohort <= 40  # ~10% of 200 flows

    # traffic outside the tenant port is stamped by the default wrapper
    request = FleetRequest(10_001, GET, 10.0, user_id=77, dst_port=9999)
    fleet.switch.pick(request)
    assert request.cohort == cohort_bucket(77, salt=0xB)

    # and live traffic flows through both wrappers losslessly
    fleet.drive(duration_us=20_000.0, rps=100_000, num_users=5_000)
    fleet.run()
    assert fleet.completed == fleet.generator.offered
    assert w_default.diff.decisions > 0
    assert w_default.canary_enforced > 0
    assert w_default.snapshot()["stage"] == "canary"


# ----------------------------------------------------------------------
# The figure_canary acceptance story
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def canary_table():
    return run_figure_canary(duration_us=250_000.0, warmup_us=60_000.0)


def test_figure_canary_good_promotes_broken_rejected(canary_table):
    rows = {row["candidate"]: row for row in canary_table.rows}
    good, broken = rows["good"], rows["broken"]
    assert good["outcome"] == "active"
    assert good["reason"] == "slo_gates_passed"
    assert broken["outcome"] == "rejected"
    assert broken["reason"] == "canary_p99"
    # the canary gate caught what the decision diff could not: the
    # broken candidate *passed* the agreement gate
    assert broken["agreement"] >= 0.90
    assert broken["canary_enforced"] > 0
    assert broken["canary_p99_us"] > 1.5 * broken["control_p99_us"]
    # the live objective was never sacrificed by either attempt
    for row in (good, broken):
        assert row["slo_breached"] is False
        assert row["get_p99_us"] <= SLO_GET_P99_US
        assert row["page_ticks"] == 0


def test_figure_canary_is_deterministic(canary_table):
    repeat = run_figure_canary(
        duration_us=250_000.0, warmup_us=60_000.0, candidates=["broken"],
    ).rows[0]
    first = next(row for row in canary_table.rows
                 if row["candidate"] == "broken")
    for column in canary_table.columns:
        assert repeat[column] == first[column], column


# ----------------------------------------------------------------------
# The no-op audit: no shadow deployments means no promotion objects
# ----------------------------------------------------------------------
def test_default_runs_allocate_no_promotion_objects(monkeypatch):
    counts = {}

    def probe(cls):
        orig = cls.__init__
        counts[cls.__name__] = 0

        def wrapped(self, *a, **k):
            counts[cls.__name__] += 1
            return orig(self, *a, **k)

        monkeypatch.setattr(cls, "__init__", wrapped)

    probed = (CanarySplit, DecisionDiff, ShadowTap, PromotionRecord,
              CanaryController, ShadowSteering)
    for cls in probed:
        probe(cls)
    # sanity: the probe sees instantiations
    CanarySplit()
    assert counts["CanarySplit"] == 1
    counts["CanarySplit"] = 0

    # a figure6-style point, a dynamic figure8 run, and a fleet drive
    testbed, _ = run_point(
        lambda: RocksDbTestbed(seed=3, qdisc=(SRPT_BY_SIZE, "socket",
                                              "pifo"), mark_sizes=True),
        100_000, GET_SCAN_995_005, 60_000.0, 15_000.0,
    )
    for deployed in testbed.machine.syrupd.deployed:
        for qdisc in deployed.qdiscs:
            assert qdisc.shadow is None
    f8_testbed, _ = stage_dynamic(load=3_000, duration_us=60_000.0, seed=5)
    f8_testbed.machine.run()
    fleet = Fleet(num_machines=8, seed=5)
    fleet.drive(duration_us=10_000.0, rps=100_000, num_users=1_000)
    fleet.run()

    assert counts == {cls.__name__: 0 for cls in probed}
