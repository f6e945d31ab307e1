"""Integration tests for queueing disciplines across the stack.

Locks the tentpole's end-to-end contracts:

- paired-run determinism: no qdisc vs a PASS-everywhere rank function
  produce bit-identical figure6/figure8-style outputs (same latency
  sample streams, same drops), and the exact PIFO's tie-break is stable
  across repeated runs;
- fault containment: a VmFault-raising rank function quarantines the
  deployment back to FIFO while the queue keeps draining — nothing
  stranded, traffic still served;
- every attachment layer works: socket backlogs, NIC RX queues, and the
  ghOSt runqueue snapshot;
- the operator surfaces (``syrupd.qdiscs()`` / ``syrupctl qdisc``) and
  the figure_order experiment show SRPT beating FIFO for short requests
  on both backends.
"""

import dataclasses

import pytest

from repro import Hook, Machine, set_a
from repro.apps.rocksdb import RocksDbServer
from repro.core.health import HealthPolicy
from repro.core.syrupd import IsolationError
from repro.faults import FaultPlan
from repro.qdisc import FIFO_RANK, SRPT_BY_SIZE, qdisc_hook
from repro.experiments.figure8 import stage_dynamic
from repro.experiments.figure_order import run_figure_order
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.policies.builtin import SCAN_AVOID
from repro.policies.thread_policies import GetPriorityPolicy
from repro.workload.mixes import GET_SCAN_995_005

LOAD = 100_000
DURATION_US = 60_000.0
WARMUP_US = 15_000.0

RANK_BY_TID = """
def rank(t):
    if pkt_len(t) < 8:
        return PASS
    return load_u64(t, 0)
"""


def drive_socket_point(qdisc, seed=3, load=LOAD, mark_sizes=None):
    def factory():
        return RocksDbTestbed(
            qdisc=qdisc,
            mark_sizes=(qdisc is not None if mark_sizes is None
                        else mark_sizes),
            seed=seed,
        )

    return run_point(factory, load, GET_SCAN_995_005, DURATION_US, WARMUP_US)


def fingerprint(testbed, gen):
    """Everything a figure table is computed from, bit-for-bit."""
    return (
        tuple(gen.latency._samples),
        {tag: tuple(gen.latency._select(tag)) for tag in gen.latency.tags()},
        gen.drop_fraction(),
        dict(testbed.machine.netstack.drops),
        testbed.machine.now,
    )


# ----------------------------------------------------------------------
# Paired-run determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["pifo", "bucket"])
def test_pass_everywhere_matches_vanilla_figure6_point(backend):
    vanilla = fingerprint(*drive_socket_point(None, mark_sizes=False))
    paired = fingerprint(
        *drive_socket_point((FIFO_RANK, "socket", backend), mark_sizes=False)
    )
    assert paired == vanilla


def test_pass_everywhere_matches_vanilla_figure8_dynamic():
    def run(with_qdisc):
        testbed, gen = stage_dynamic(
            load=3_000, duration_us=60_000.0, seed=5,
        )
        if with_qdisc:
            testbed.app.deploy_qdisc(FIFO_RANK, "socket", backend="pifo")
        testbed.machine.run()
        return fingerprint(testbed, gen)

    assert run(True) == run(False)


def test_exact_pifo_tie_break_is_stable_across_runs():
    first = fingerprint(*drive_socket_point((SRPT_BY_SIZE, "socket", "pifo")))
    second = fingerprint(*drive_socket_point((SRPT_BY_SIZE, "socket", "pifo")))
    assert first == second


# ----------------------------------------------------------------------
# Fault containment / quarantine
# ----------------------------------------------------------------------
def test_faulting_rank_function_quarantines_to_fifo_and_keeps_draining():
    plan = FaultPlan(seed=11).vmfault(
        0.5, app="rocksdb", hook=qdisc_hook("socket")
    )

    def factory():
        return RocksDbTestbed(
            qdisc=(SRPT_BY_SIZE, "socket", "pifo"), mark_sizes=True,
            seed=3, metrics=True, faults=plan,
            health=HealthPolicy(window_us=10_000.0, max_faults=5),
        )

    testbed, gen = run_point(
        factory, LOAD, GET_SCAN_995_005, DURATION_US, WARMUP_US
    )
    rows = testbed.machine.syrupd.qdiscs()
    assert rows, "disciplines should still be listed after quarantine"
    assert sum(r["runtime_faults"] for r in rows) > 0
    # every queue reverted to FIFO; the deployment is quarantined
    assert all(r["state"] == "fifo" for r in rows)
    assert all(r["deployment_state"] == "quarantined" for r in rows)
    # nothing stranded: everything accepted was dequeued, queues empty
    assert all(r["depth"] == 0 for r in rows)
    assert all(r["enqueues"] == r["dequeues"] for r in rows)
    # and the app kept serving traffic throughout
    assert gen.latency.count > 0
    assert gen.drop_fraction() < 1.0
    health = [
        r for r in testbed.machine.syrupd.health()
        if r["hook"] == qdisc_hook("socket")
    ]
    assert health and health[0]["state"] == "quarantined"
    events = testbed.machine.obs.events.events()
    assert "qdisc_fault" in [e["kind"] for e in events]
    assert any(e["kind"] == "lifecycle" and e["action"] == "quarantine"
               for e in events)


# ----------------------------------------------------------------------
# Layer coverage: NIC RX and ghOSt runqueue
# ----------------------------------------------------------------------
def test_nic_rx_layer_ranks_and_delivers_everything():
    testbed, gen = drive_socket_point(
        (SRPT_BY_SIZE, "nic_rx", "bucket"), mark_sizes=True
    )
    rows = testbed.machine.syrupd.qdiscs()
    assert rows and all(r["layer"] == "nic_rx" for r in rows)
    assert sum(r["enqueues"] for r in rows) > 0
    # every accepted packet left its RX queue (one drain per accept)
    assert all(r["depth"] == 0 for r in rows)
    assert all(r["enqueues"] == r["dequeues"] for r in rows)
    assert gen.latency.count > 0


def test_runqueue_layer_orders_ghost_snapshots():
    testbed = RocksDbTestbed(
        thread_policy_factory=lambda server: GetPriorityPolicy(
            server.type_map
        ),
        scheduler="ghost", mark_types=True, num_threads=36, seed=5,
    )
    deployed = testbed.app.deploy_qdisc(RANK_BY_TID, "runqueue")
    qdisc = deployed.qdiscs[0]
    assert qdisc.target == "enclave:rocksdb"
    gen = testbed.drive(4_000, GET_SCAN_995_005, DURATION_US, WARMUP_US)
    gen.start()
    testbed.machine.run()
    assert qdisc.enqueues > 0  # multi-thread snapshots were ordered
    assert gen.latency.count > 0
    # detach: the agent stops consulting the discipline
    testbed.app.undeploy_qdisc("runqueue")
    agents = [
        d.agent for d in testbed.machine.syrupd.deployed
        if d.agent is not None
    ]
    assert agents and all(a.runqueue_qdisc is None for a in agents)


QDISC_COUNTERS = ("enqueues", "dequeues", "sched_drops", "overflow_drops",
                  "evictions", "runtime_faults")


def assert_registry_matches_rows(machine):
    """Every ``(app, qdisc:<layer>)`` registry counter equals the sum of
    the plain counters of that deployment's queues."""
    rows = machine.syrupd.qdiscs()
    registry = machine.obs.registry
    for app, hook in {(row["app"], row["hook"]) for row in rows}:
        mine = [row for row in rows if (row["app"], row["hook"]) == (app, hook)]
        for name in QDISC_COUNTERS:
            assert registry.value(app, hook, name) == sum(
                row[name] for row in mine), (app, hook, name)


def test_registry_counters_match_rows_when_arrivals_evict():
    """Two tenants past saturation on 32-deep backlogs: an arrival
    admitted by evicting an older element is an enqueue in both books."""
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
        qdisc=(SRPT_BY_SIZE, "socket", "pifo"),
        mark_scans=True, mark_sizes=True, num_threads=6, seed=3,
        metrics=True, config=dataclasses.replace(set_a(), socket_backlog=32),
    )
    for tenant, user_id, rate in (("alpha", 1, 60_000),
                                  ("bravo", 2, 420_000)):
        testbed.drive(rate, GET_SCAN_995_005, 20_000.0, 0.0, stream=tenant,
                      user_id=user_id, tenant=tenant).start()
    testbed.machine.run()
    assert sum(row["evictions"] for row in testbed.machine.syrupd.qdiscs()) > 0
    assert_registry_matches_rows(testbed.machine)


def test_registry_counters_match_rows_at_the_runqueue():
    """The runqueue layer orders snapshots instead of queueing: each
    ordered element is an enqueue and a dequeue in both books."""
    testbed = RocksDbTestbed(
        thread_policy_factory=lambda server: GetPriorityPolicy(
            server.type_map
        ),
        scheduler="ghost", mark_types=True, num_threads=36, seed=5,
        metrics=True,
    )
    qdisc = testbed.app.deploy_qdisc(RANK_BY_TID, "runqueue").qdiscs[0]
    testbed.drive(4_000, GET_SCAN_995_005, DURATION_US, WARMUP_US).start()
    testbed.machine.run()
    assert qdisc.enqueues > 0
    assert_registry_matches_rows(testbed.machine)


def test_runqueue_layer_requires_thread_scheduler():
    testbed = RocksDbTestbed(seed=1)
    with pytest.raises(ValueError, match="Thread Scheduler"):
        testbed.app.deploy_qdisc(RANK_BY_TID, "runqueue")


@pytest.mark.parametrize("refusal", ["foreign_socket", "no_queues",
                                     "no_such_rx_queue"])
def test_a_refused_qdisc_deploy_leaves_no_state(refusal):
    """Seed bug: a deploy refused at attach time had already loaded the
    rank function: a queue named before the refused one kept an active
    qdisc no deployment owned, the app's maps stayed pinned and an fd was
    spent.  Every queue is resolved and owner-checked before the image."""
    machine = Machine(set_a(), seed=9, metrics=True)
    mine = machine.register_app("a", ports=[8080])
    theirs = machine.register_app("b", ports=[9090])
    sockets = []
    if refusal == "foreign_socket":
        for app, port in ((mine, 8080), (theirs, 9090)):
            sockets += RocksDbServer(machine, app, port, 2).sockets[:1]
    layer, targets, error = {
        "foreign_socket": ("socket", sockets, IsolationError),
        "no_queues": ("socket", None, ValueError),
        "no_such_rx_queue": ("nic_rx", [0, 99], ValueError),
    }[refusal]
    syrupd = machine.syrupd
    deployed, fd = list(syrupd.deployed), syrupd._next_fd

    with pytest.raises(error):
        mine.deploy_qdisc(SRPT_BY_SIZE, layer, targets=targets)
    assert all(socket.qdisc is None for socket in sockets)
    assert not machine.nic.rx_qdiscs
    assert syrupd.deployed == deployed
    assert not [path for path in syrupd.registry.paths()
                if path.startswith(mine.map_path(""))]
    assert syrupd._next_fd == fd


# ----------------------------------------------------------------------
# Operator surface + undeploy
# ----------------------------------------------------------------------
def test_undeploy_detaches_every_socket():
    testbed = RocksDbTestbed(
        qdisc=(SRPT_BY_SIZE, "socket", "pifo"), mark_sizes=True, seed=1,
    )
    assert all(s.qdisc is not None for s in testbed.server.sockets)
    testbed.app.undeploy_qdisc("socket")
    assert all(s.qdisc is None for s in testbed.server.sockets)
    assert testbed.machine.syrupd.qdiscs() == [] or all(
        r["deployment_state"] != "active"
        for r in testbed.machine.syrupd.qdiscs()
    )


def test_syrupctl_qdisc_view():
    from repro import syrupctl

    machine = syrupctl.stage_view(syrupctl.build_parser().parse_args(
        ["qdisc", "--load", "60000", "--duration-ms", "20"]
    ))
    machine.run()
    text = syrupctl.render_qdisc(machine)
    assert "queueing disciplines" in text
    assert "sid:" in text and "pifo" in text and "active" in text
    rows = machine.syrupd.qdiscs()
    assert rows and all(r["backend"] == "pifo" for r in rows)


# ----------------------------------------------------------------------
# figure_order: the acceptance-criterion story
# ----------------------------------------------------------------------
def test_figure_order_srpt_beats_fifo_for_short_requests():
    table = run_figure_order(
        loads=[240_000], duration_us=120_000.0, warmup_us=30_000.0, seed=3,
    )
    by_discipline = {row["discipline"]: row for row in table}
    assert set(by_discipline) == {"fifo", "srpt_pifo", "srpt_bucket"}
    fifo = by_discipline["fifo"]
    assert fifo["get_p99_vs_fifo"] == 1.0
    for name in ("srpt_pifo", "srpt_bucket"):
        row = by_discipline[name]
        assert row["get_p99_us"] < fifo["get_p99_us"]
        assert row["get_p99_vs_fifo"] < 1.0
    assert by_discipline["srpt_pifo"]["backend"] == "pifo"
    assert by_discipline["srpt_bucket"]["backend"] == "bucket"


def test_figure_order_is_deterministic():
    kwargs = dict(
        loads=[120_000], duration_us=40_000.0, warmup_us=10_000.0, seed=3,
    )
    first = [dict(r.columns) for r in run_figure_order(**kwargs)]
    second = [dict(r.columns) for r in run_figure_order(**kwargs)]
    assert first == second
