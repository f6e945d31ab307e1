"""Elastic core arbitration tests: CoreArbiter, controller, figure.

Covers the arbitration invariants (no double grant, floors, revocation
never strands a runnable thread), fault composition (``core_stall``
routed through the arbiter), the ElasticCoreController's apportionment
law, the ``figure_oversub`` demonstration (every static split fails at
least one app's SLO, elastic meets both), and the **no-op audit**: a
machine built without ``scheduler="elastic"`` allocates zero arbiter
objects and simulates bit-identically.
"""

import pytest

from repro.experiments.figure_oversub import (
    SLO_P99_US,
    run_figure_oversub,
    stage_variant,
)
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.faults import FaultPlan
from repro.kernel.arbiter import (
    CoreArbiter,
    CoreGrantError,
    ElasticCoreController,
    ElasticScheduler,
    ElasticSpec,
)
from repro.kernel.cpu import Core
from repro.obs.accounting import TenantAccountant
from repro.obs.probe import Probe
from repro.sim.engine import Engine
from repro.workload.mixes import GET_SCAN_995_005


# ----------------------------------------------------------------------
# Unit scaffolding: an engine, a handful of cores, fake class schedulers
# ----------------------------------------------------------------------
class FakeSched:
    """Records add/remove calls; enough scheduler surface for grants."""

    def __init__(self):
        self.cores = []
        self.threads = []

    def add_core(self, core):
        self.cores.append(core)

    def remove_core(self, core):
        self.cores.remove(core)


def make_arbiter(n_cores=4, floors=(1, 1), acct=None):
    engine = Engine()
    cores = [Core(i) for i in range(n_cores)]
    kwargs = {}
    if acct is not None:
        kwargs["probe"] = Probe(engine, acct=acct)
    arbiter = CoreArbiter(engine, cores, **kwargs)
    scheds = {}
    for name, floor in zip(("alpha", "bravo"), floors):
        scheds[name] = FakeSched()
        arbiter.register(name, scheds[name], floor=floor, tenant=name)
    return engine, arbiter, scheds


# ----------------------------------------------------------------------
# Grant / revoke invariants
# ----------------------------------------------------------------------
def test_no_double_grant():
    _engine, arbiter, scheds = make_arbiter()
    arbiter.grant(0, "alpha")
    assert arbiter.owner_of(0) == "alpha"
    assert scheds["alpha"].cores[0].cid == 0
    with pytest.raises(CoreGrantError, match="already granted"):
        arbiter.grant(0, "bravo")
    with pytest.raises(CoreGrantError, match="already granted"):
        arbiter.grant(0, "alpha")


def test_unknown_core_and_class_raise():
    _engine, arbiter, _scheds = make_arbiter(n_cores=2)
    with pytest.raises(CoreGrantError, match="not in the arbitrated pool"):
        arbiter.grant(99, "alpha")
    with pytest.raises(CoreGrantError, match="unknown class"):
        arbiter.grant(0, "charlie")
    with pytest.raises(CoreGrantError, match="not granted"):
        arbiter.revoke(0)
    with pytest.raises(CoreGrantError, match="already registered"):
        arbiter.register("alpha", FakeSched())


def test_floor_blocks_revocation_unless_forced():
    _engine, arbiter, scheds = make_arbiter(n_cores=3)
    arbiter.grant(0, "alpha")
    arbiter.grant(1, "alpha")
    arbiter.grant(2, "bravo")
    arbiter.revoke(1)  # alpha above floor: fine
    with pytest.raises(CoreGrantError, match="below"):
        arbiter.revoke(0)  # would take alpha to 0 < floor 1
    with pytest.raises(CoreGrantError, match="below"):
        arbiter.revoke(2)  # bravo at its floor
    # physics (stalls) may force it; the scheduler still migrates first
    arbiter.revoke(2, force=True)
    assert arbiter.owner_of(2) is None
    assert scheds["bravo"].cores == []


def test_move_is_revoke_plus_grant():
    _engine, arbiter, scheds = make_arbiter(n_cores=3)
    arbiter.grant(0, "alpha")
    arbiter.grant(1, "alpha")
    arbiter.grant(2, "bravo")
    arbiter.move(1, "bravo")
    assert arbiter.allocation() == {"alpha": [0], "bravo": [2, 1]}
    assert arbiter.moves == 1
    assert [c.cid for c in scheds["bravo"].cores] == [2, 1]


def test_occupancy_books_to_class_totals_and_tenant_ledgers():
    acct = TenantAccountant()
    engine, arbiter, _scheds = make_arbiter(n_cores=2, floors=(0, 0),
                                            acct=acct)
    arbiter.grant(0, "alpha")
    arbiter.grant(1, "bravo")
    engine.at(100.0, arbiter.move, 0, "bravo")
    engine.at(250.0, arbiter.settle)
    engine.run()
    # alpha held core 0 for [0, 100); bravo held core 1 for [0, 250)
    # and core 0 for [100, 250)
    assert arbiter.occupancy_us("alpha") == pytest.approx(100.0)
    assert arbiter.occupancy_us("bravo") == pytest.approx(400.0)
    assert acct.ledger("alpha").core_occupancy_us == pytest.approx(100.0)
    assert acct.ledger("bravo").core_occupancy_us == pytest.approx(400.0)
    # settle is idempotent at an instant
    arbiter.settle()
    assert acct.ledger("bravo").core_occupancy_us == pytest.approx(400.0)
    # the timeline recorded the ownership segments
    owners = [owner for _s, _e, owner in arbiter.timeline(0)]
    assert owners[0] == "alpha" and owners[-1] == "bravo"


def test_stall_borrows_from_surplus_class_and_repays():
    engine, arbiter, _scheds = make_arbiter(n_cores=4)
    arbiter.grant(0, "alpha")
    arbiter.grant(1, "alpha")
    arbiter.grant(2, "bravo")
    arbiter.grant(3, "bravo")
    record = arbiter.stall(2, duration_us=50.0)
    # bravo's stalled core was backfilled by borrowing alpha's newest
    assert record["victim"] == "bravo"
    assert record["backfill"] == 1
    assert record["lender"] == "alpha"
    assert arbiter.allocation() == {"alpha": [0], "bravo": [3, 1]}
    assert 2 not in arbiter.free_cores()
    with pytest.raises(CoreGrantError, match="stalled"):
        arbiter.grant(2, "alpha")
    engine.run()
    # stall lifted: the recovered core repays the lender
    assert arbiter.allocation() == {"alpha": [0, 2], "bravo": [3, 1]}
    assert arbiter.stall_count == 1


def test_stall_backfills_from_free_pool_when_one_is_idle():
    engine, arbiter, _scheds = make_arbiter(n_cores=3)
    arbiter.grant(0, "alpha")
    arbiter.grant(1, "bravo")  # core 2 stays free
    record = arbiter.stall(0, duration_us=25.0)
    assert record["backfill"] == 2 and record["lender"] is None
    assert arbiter.allocation() == {"alpha": [2], "bravo": [1]}
    engine.run()
    # recovered core goes back to the stall's victim
    assert arbiter.allocation() == {"alpha": [2, 0], "bravo": [1]}


def test_overlapping_stalls_keep_the_newest_deadline():
    engine, arbiter, _scheds = make_arbiter(n_cores=2)
    arbiter.grant(0, "alpha")
    arbiter.grant(1, "bravo")
    arbiter.stall(0, duration_us=10.0)
    engine.at(5.0, arbiter.stall, 0, 100.0)  # extended mid-stall
    engine.run(until=50.0)
    assert 0 in arbiter._stalls  # first deadline was superseded
    engine.run()
    assert 0 not in arbiter._stalls
    assert arbiter.owner_of(0) == "alpha"


# ----------------------------------------------------------------------
# The control law
# ----------------------------------------------------------------------
class _Thread:
    def __init__(self, state="runnable"):
        self.state = state


def test_controller_targets_respect_floors():
    _engine, arbiter, scheds = make_arbiter(n_cores=4)
    for cid, name in ((0, "alpha"), (1, "alpha"), (2, "bravo"),
                      (3, "bravo")):
        arbiter.grant(cid, name)
    controller = ElasticCoreController(arbiter, hysteresis_ticks=1,
                                       alpha=1.0)
    scheds["alpha"].threads = [_Thread() for _ in range(10)]
    scheds["bravo"].threads = [_Thread("blocked")]
    targets = controller.targets(controller.pressures())
    # all the spare capacity follows alpha's pressure; bravo keeps floor
    assert targets == {"alpha": 3, "bravo": 1}


def test_controller_hysteresis_then_one_move_per_firing():
    _engine, arbiter, scheds = make_arbiter(n_cores=4)
    for cid, name in ((0, "alpha"), (1, "alpha"), (2, "bravo"),
                      (3, "bravo")):
        arbiter.grant(cid, name)
    controller = ElasticCoreController(arbiter, hysteresis_ticks=2,
                                       alpha=1.0)
    scheds["alpha"].threads = [_Thread() for _ in range(10)]
    controller()
    assert arbiter.moves == 0  # first tick only observes
    controller()
    assert arbiter.moves == 1  # streak reached: one core moves
    assert arbiter.allocation() == {"alpha": [0, 1, 3], "bravo": [2]}
    controller()
    controller()
    # bravo is at its floor now: no further move is legal
    assert arbiter.moves == 1
    assert len(arbiter.allocation()["bravo"]) == 1


def test_controller_prefers_free_cores_over_revocation():
    _engine, arbiter, scheds = make_arbiter(n_cores=4)
    arbiter.grant(0, "alpha")
    arbiter.grant(1, "bravo")  # cores 2, 3 free
    controller = ElasticCoreController(arbiter, hysteresis_ticks=2,
                                       alpha=1.0)
    scheds["alpha"].threads = [_Thread() for _ in range(8)]
    controller()
    # deficit satisfied from the free pool immediately — no hysteresis,
    # no revocation
    assert arbiter.moves == 0
    assert len(arbiter.allocation()["alpha"]) == 2
    assert arbiter.allocation()["bravo"] == [1]


# ----------------------------------------------------------------------
# Revocation never strands work (real machines, mid-run revocations)
# ----------------------------------------------------------------------
def _cfs_placed(sched):
    """Every thread CFS can currently account for."""
    placed = set()
    for core in sched.cores:
        if core.thread is not None:
            placed.add(core.thread)
    for rq in sched._rq.values():
        placed.update(rq)
    placed.update(sched._orphans)
    return placed


def test_cfs_revocation_conserves_runnable_threads():
    machine, _gs, gen_batch, _c = stage_variant(
        "static_2_3", 40_000, 4.0, 60_000.0, 10_000.0, seed=7
    )
    arbiter = machine.arbiter
    batch = machine.scheduler.classes["batch"]
    checked = {"n": 0}

    def shrink_and_check():
        before = {
            t for t in batch.threads if t.state != "blocked"
        }
        victim = arbiter.classes["batch"].cores[-1].cid
        arbiter.move(victim, "search")
        after = _cfs_placed(batch)
        missing = {t for t in before if t.state != "blocked"} - after
        assert not missing, f"stranded threads: {missing}"
        checked["n"] += 1

    machine.engine.at(25_000.0, shrink_and_check)
    machine.engine.at(30_000.0, shrink_and_check)  # down to its floor
    machine.run()
    assert checked["n"] == 2
    # the shrunken class still finished its work on the surviving core
    assert gen_batch.completed_in_window() > 0
    assert len(arbiter.allocation()["batch"]) == 1


def test_ghost_revocation_aborts_inflight_and_recovers():
    # loads sized so even the post-revocation single core keeps up
    # (~77K RPS capacity): any drop would mean revocation lost work
    machine, gen_search, _gb, _c = stage_variant(
        "static_3_2", 30_000, 2.0, 60_000.0, 10_000.0, seed=9
    )
    arbiter = machine.arbiter
    search = machine.scheduler.classes["search"]

    def shrink():
        victim = arbiter.classes["search"].cores[-1].cid
        arbiter.move(victim, "batch")
        assert victim not in [c.cid for c in search.cores]

    machine.engine.at(20_000.0, shrink)
    machine.engine.at(24_000.0, shrink)  # search down to its floor of 1
    machine.run()
    agent = search.agent
    assert agent is not None and not agent.crashed
    # the enclave kept scheduling on the surviving core: work completed
    # after the revocations, and nothing hit the failed-commit path
    assert gen_search.drop_fraction() == 0.0
    assert gen_search.completed_in_window() > 1000
    assert len(arbiter.allocation()["search"]) == 1


def test_core_stall_fault_routes_through_the_arbiter():
    from repro.config import set_a
    from repro.machine import Machine

    plan = FaultPlan().core_stall(0, at_us=5_000.0, duration_us=10_000.0)
    spec = (
        ElasticSpec()
        .ghost("search", floor=1, tenant="search")
        .cfs("batch", apps=("batch",), floor=1, tenant="batch")
    )
    machine = Machine(set_a(), seed=3, scheduler="elastic", elastic=spec,
                      faults=plan)
    machine.register_app("search", ports=[8080])
    machine.register_app("batch", ports=[8081])
    stalled_cid = machine.arbiter.pool[0].cid
    victim = machine.arbiter.owner_of(stalled_cid)
    before = dict(machine.arbiter.allocation())
    machine.engine.run(until=8_000.0)
    assert machine.arbiter.stall_count == 1
    assert stalled_cid not in machine.arbiter.free_cores()
    # the victim class was backfilled around the stall
    assert len(machine.arbiter.allocation()[victim]) == len(before[victim])
    machine.engine.run(until=20_000.0)
    # stall lifted: the core is granted again (lender or victim)
    assert machine.arbiter.owner_of(stalled_cid) is not None
    assert machine.faults.injected == 1


# ----------------------------------------------------------------------
# figure_oversub: the claim itself
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def oversub_table():
    return run_figure_oversub(duration_us=200_000.0, warmup_us=20_000.0,
                              seed=5)


def test_every_static_split_fails_an_slo(oversub_table):
    rows = {row["variant"]: row for row in oversub_table}
    for name, row in rows.items():
        if name == "elastic":
            continue
        assert not row["slo_met"], (
            f"{name} unexpectedly met both SLOs: "
            f"search={row['search_p99_us']:.0f}us "
            f"batch={row['batch_p99_us']:.0f}us"
        )


def test_elastic_meets_both_slos(oversub_table):
    row = next(r for r in oversub_table if r["variant"] == "elastic")
    assert row["search_slo_met"] and row["batch_slo_met"]
    assert row["search_p99_us"] <= SLO_P99_US
    assert row["batch_p99_us"] <= SLO_P99_US
    assert row["core_moves"] > 0  # it actually reallocated
    assert row["search_drop_pct"] == 0.0
    assert row["batch_drop_pct"] == 0.0


def test_static_splits_never_move_cores(oversub_table):
    for row in oversub_table:
        if row["variant"] != "elastic":
            assert row["core_moves"] == 0


def test_occupancy_shares_track_the_bursts(oversub_table):
    """Elastic occupancy sits between the pinned extremes and sums to
    (almost) the whole pool — cores were busy being traded, not idle."""
    row = next(r for r in oversub_table if r["variant"] == "elastic")
    total = row["search_occ_cores"] + row["batch_occ_cores"]
    assert total == pytest.approx(5.0, rel=0.02)
    assert 1.0 < row["search_occ_cores"] < 4.0
    assert 1.0 < row["batch_occ_cores"] < 4.0


def test_figure_oversub_is_deterministic():
    kwargs = dict(duration_us=60_000.0, warmup_us=10_000.0, seed=11,
                  variants=["elastic"])
    first_table = run_figure_oversub(**kwargs)
    first = first_table.rows[0]
    second = run_figure_oversub(**kwargs).rows[0]
    for column in first_table.columns:
        assert first[column] == second[column], column


# ----------------------------------------------------------------------
# The no-op audit: no arbiter means zero objects and bit-identical runs
# ----------------------------------------------------------------------
def _fingerprint(testbed, gen):
    return (
        tuple(gen.latency._samples),
        gen.drop_fraction(),
        dict(testbed.machine.netstack.drops),
        testbed.machine.now,
    )


def test_default_machines_leave_the_arbiter_absent():
    testbed = RocksDbTestbed(seed=3)
    assert testbed.machine.arbiter is None
    assert testbed.machine.agent_cores == []


def test_non_elastic_machines_reject_an_elastic_spec():
    from repro.config import set_a
    from repro.machine import Machine

    with pytest.raises(ValueError, match="scheduler='elastic'"):
        Machine(set_a(), scheduler="ghost", elastic=ElasticSpec())
    with pytest.raises(ValueError, match="at least one class"):
        Machine(set_a(), scheduler="elastic", elastic=None)


def test_disabled_runs_allocate_no_arbiter_objects_and_stay_identical(
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

    for cls in (CoreArbiter, ElasticCoreController, ElasticScheduler):
        probe(cls)
    # sanity: the probe sees instantiations
    ElasticScheduler(Engine(), costs=None)
    assert counts["ElasticScheduler"] == 1
    counts["ElasticScheduler"] = 0

    def figure6_point():
        def factory():
            return RocksDbTestbed(seed=3)

        return _fingerprint(*run_point(
            factory, 100_000, GET_SCAN_995_005, 60_000.0, 15_000.0
        ))

    assert figure6_point() == figure6_point()
    assert counts == {"CoreArbiter": 0, "ElasticCoreController": 0,
                      "ElasticScheduler": 0}
