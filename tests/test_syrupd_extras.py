"""Tests for multi-hook deployment, syrupd status, and map sharing."""

import pytest

from repro import FaultPlan, HealthPolicy, Hook, Machine, set_a, set_b
from repro.apps.mica import MicaServer
from repro.apps.rocksdb import RocksDbServer
from repro.core.loader import PolicyValidationError
from repro.core.syrupd import IsolationError
from repro.ebpf import VerifierError
from repro.policies.builtin import HASH_BY_FLOW, ROUND_ROBIN
from repro.qdisc.policies import SRPT_BY_SIZE, SRPT_MISRANK_GETS, SRPT_TIERED
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY, GET_SCAN_995_005


class _Fifo:
    def schedule(self, status):
        return [(t, c.cid) for t, c in zip(status.runnable,
                                            status.idle_cores())]


def test_deploy_to_multiple_hooks_at_once():
    """§3.1: syr_deploy_policy takes one *or more* hooks."""
    machine = Machine(set_b(), seed=61)
    app = machine.register_app("multi", ports=[8080])
    RocksDbServer(machine, app, 8080, 4)
    deployed = app.deploy_policy(
        HASH_BY_FLOW,
        [Hook.SOCKET_SELECT, Hook.CPU_REDIRECT],
        constants={"NUM_EXECUTORS": 4},
    )
    assert len(deployed) == 2
    assert {d.hook for d in deployed} == {Hook.SOCKET_SELECT,
                                          Hook.CPU_REDIRECT}
    # each hook has its own program instance
    assert deployed[0].program is not deployed[1].program


def test_multi_hook_deploys_share_maps():
    machine = Machine(set_a(), seed=61)
    app = machine.register_app("multi", ports=[8080])
    RocksDbServer(machine, app, 8080, 4)
    src = (
        'shared = syr_map("shared", 16)\n\n'
        "def schedule(pkt):\n"
        "    atomic_add(shared, 0, 1)\n"
        "    return PASS\n"
    )
    a, b = app.deploy_policy(src, [Hook.SOCKET_SELECT, Hook.CPU_REDIRECT])
    # both programs bound the same pinned map object
    assert a.program.maps[0] is b.program.maps[0]


def test_status_reports_network_deployments():
    machine = Machine(set_a(), seed=62)
    app = machine.register_app("statusapp", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 4})
    gen = OpenLoopGenerator(machine, 8080, 20_000, GET_ONLY,
                            duration_us=10_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    rows = machine.syrupd.status()
    assert len(rows) == 1
    row = rows[0]
    assert row["app"] == "statusapp"
    assert row["hook"] == Hook.SOCKET_SELECT
    assert row["invocations"] == gen.sent_in_window()
    assert row["cycle_estimate"] > 0
    assert row["maps"] == []


def test_status_reports_thread_deployments():
    machine = Machine(set_a(), seed=63, scheduler="ghost")
    app = machine.register_app("ghostapp", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4)
    app.deploy_policy(_Fifo(), Hook.THREAD_SCHED)
    gen = OpenLoopGenerator(machine, 8080, 20_000, GET_ONLY,
                            duration_us=10_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    rows = machine.syrupd.status()
    assert rows[0]["commits"] > 0
    assert rows[0]["policy_errors"] == 0


def test_undeploy_restores_default():
    machine = Machine(set_a(), seed=64)
    app = machine.register_app("undep", ports=[8080])
    RocksDbServer(machine, app, 8080, 4)
    app.deploy_policy("def schedule(pkt):\n    return DROP\n",
                      Hook.SOCKET_SELECT)
    site = machine.netstack.socket_select_hook
    machine.syrupd.undeploy(app, Hook.SOCKET_SELECT)
    from repro.net.packet import FiveTuple, Packet

    pkt = Packet(FiveTuple(1, 2, 3, 8080, 17), b"x" * 16)
    assert site.decide(pkt) == ("none", None)


LEAKY = (
    'leak_map = syr_map("leak_map", 64)\n\n'
    "def schedule(pkt):\n"
    "    return load_u32(pkt, 0)\n"   # no pkt_len guard: the verifier refuses
)


@pytest.mark.parametrize("entry_point", ["deploy", "redeploy", "shadow"])
def test_a_rejected_program_leaves_no_maps_or_series_behind(entry_point):
    """Seed bug: maps were created and pinned before verification, so a
    refused text left ``/sys/fs/bpf/syrup/app/leak_map`` (and its six
    registry series) in the daemon."""
    machine = Machine(set_a(), seed=65, metrics=True)
    app = machine.register_app("app", ports=[8080])
    RocksDbServer(machine, app, 8080, 4)
    if entry_point != "deploy":
        app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                          constants={"NUM_THREADS": 4})
    attempt = {
        "deploy": lambda: app.deploy_policy(LEAKY, Hook.SOCKET_SELECT),
        "redeploy": lambda: app.redeploy_policy(LEAKY, Hook.SOCKET_SELECT),
        "shadow": lambda: app.deploy_shadow(LEAKY, hook=Hook.SOCKET_SELECT),
    }[entry_point]
    registry = machine.obs.registry
    # the rejection itself is counted; create that series up front so the
    # comparison below sees only what the *load* left behind
    for name in ("verifier_rejections", "rollbacks"):
        registry.counter("app", "syrupd", name)
    paths, series = machine.syrupd.registry.paths(), len(registry)

    with pytest.raises(VerifierError):
        attempt()
    assert machine.syrupd.registry.paths() == paths
    assert len(registry) == series
    assert registry.counter("app", "syrupd", "verifier_rejections").value == 1


# ----------------------------------------------------------------------
# Control-plane digest: every syrupd transition, byte for byte
# ----------------------------------------------------------------------
def _serve(machine, server, port, rate, duration_us):
    gen = OpenLoopGenerator(machine, port, rate, GET_SCAN_995_005,
                            duration_us=duration_us)
    server.response_sink = gen.deliver_response
    gen.start()


def _network_machine():
    """Register, both isolation denials, verifier and loader rejects,
    deploy, a refused redeploy, redeploy, then a fault window that rolls
    the replacement back and quarantines the original."""
    plan = FaultPlan(seed=5).vmfault(1.0, app="net", hook=Hook.SOCKET_SELECT,
                                     start_us=3_000.0, until_us=3_400.0)
    machine = Machine(set_a(), seed=71, metrics=True, faults=plan,
                      health=HealthPolicy(max_faults=3))
    app = machine.register_app("net", ports=[8080])
    machine.register_app("other", ports=[9090])
    with pytest.raises(IsolationError):
        machine.register_app("thief", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4)
    with pytest.raises(IsolationError):
        app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT, ports=[9090])
    with pytest.raises(VerifierError):
        app.deploy_policy(LEAKY, Hook.SOCKET_SELECT)
    with pytest.raises(PolicyValidationError):
        app.deploy_shadow("import os\n", hook=Hook.SOCKET_SELECT)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 4})

    def refused_then_swapped():
        with pytest.raises(VerifierError):
            app.redeploy_policy(LEAKY, Hook.SOCKET_SELECT)
        app.redeploy_policy(HASH_BY_FLOW, Hook.SOCKET_SELECT,
                            constants={"NUM_EXECUTORS": 4})

    machine.engine.at(2_000.0, refused_then_swapped)
    _serve(machine, server, 8080, 40_000, 5_000.0)
    return machine


def _qdisc_machine():
    """Socket and NIC RX qdiscs; shadow → canary → promote → demote and
    shadow → reject on the socket layer; then the NIC qdisc's undeploy."""
    machine = Machine(set_a(), seed=72, metrics=True)
    app = machine.register_app("q", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4, mark_sizes=True)
    app.deploy_qdisc(SRPT_BY_SIZE, "socket")
    app.deploy_qdisc(SRPT_BY_SIZE, "nic_rx", backend="bucket")
    syrupd = machine.syrupd
    records = {}

    def shadow(name, policy):
        records[name] = app.deploy_shadow(
            policy, layer="socket", constants={"SHORT_US": 100}, name=name)

    steps = (
        (500.0, lambda: shadow("tiered", SRPT_TIERED)),
        (1_500.0, lambda: syrupd.advance_shadow(records["tiered"], "canary")),
        (2_500.0, lambda: syrupd.promote_shadow(records["tiered"])),
        (3_500.0, lambda: syrupd.demote_shadow(records["tiered"],
                                               "slo_breach")),
        (4_000.0, lambda: shadow("misrank", SRPT_MISRANK_GETS)),
        (4_500.0, lambda: syrupd.reject_shadow(records["misrank"],
                                               "agreement")),
        (5_500.0, lambda: app.undeploy_qdisc("nic_rx")),
    )
    for at_us, step in steps:
        machine.engine.at(at_us, step)
    _serve(machine, server, 8080, 60_000, 6_500.0)
    return machine


def _ghost_machine():
    """Thread and runqueue deploys; three agent crashes: two watchdog
    restarts, then the enclave falls back to CFS."""
    machine = Machine(set_a(), seed=73, scheduler="ghost", metrics=True,
                      health=HealthPolicy(max_restarts=2,
                                          backoff_base_us=100.0))
    app = machine.register_app("g", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4)
    app.deploy_policy(_Fifo(), Hook.THREAD_SCHED)
    app.deploy_qdisc("def rank(t):\n    return pkt_len(t)\n", "runqueue")
    for at_us in (1_000.0, 2_000.0, 3_000.0):
        machine.engine.at(at_us, machine.syrupd.inject_agent_crash, "g")
    _serve(machine, server, 8080, 4_000, 6_000.0)
    return machine


def _offload_machine():
    """XDP_OFFLOAD deploy, offload failure → XDP_SKB fallback → restore,
    undeploy."""
    machine = Machine(set_b(8), seed=74, metrics=True)
    app = machine.register_app("mica", ports=[9090])
    MicaServer(machine, app, 9090, num_threads=8,
               mode="syrup_hw").deploy_policy()
    syrupd = machine.syrupd
    machine.engine.at(1_000.0, syrupd.handle_offload_failure)
    machine.engine.at(2_000.0, syrupd.handle_offload_restore)
    machine.engine.at(3_000.0, app.undeploy_policy, Hook.XDP_OFFLOAD)
    machine.run()
    return machine


#: sha256 over each machine's event ring, ``registry.snapshot()``
#: (``updated_at`` included), ``status()``, ``health()`` and
#: ``promotions()``, in that order, for the four machines above.
#: Regenerate only in a change that alters what the control plane
#: records, and say why here.
CONTROL_PLANE_DIGEST = \
    "a4284695688e7829e1c3dfd568e6c788fc57f5ab526d06974c550c99747981b0"


def test_control_plane_is_pinned():
    import hashlib
    import json

    document = []
    for build in (_network_machine, _qdisc_machine, _ghost_machine,
                  _offload_machine):
        machine = build()
        machine.run()
        syrupd = machine.syrupd
        document.append([machine.obs.events.events(),
                         machine.obs.registry.snapshot(), syrupd.status(),
                         syrupd.health(), syrupd.promotions()])
    kinds = {event["kind"] for machine in document for event in machine[0]}
    actions = {event["action"] for machine in document
               for event in machine[0] if event["kind"] == "lifecycle"}
    assert {"app_registered", "isolation_denial", "verifier_reject",
            "loader_reject", "deploy", "redeploy", "undeploy",
            "agent_crash", "watchdog_restart", "enclave_fallback",
            "offload_fallback", "offload_restore"} <= kinds
    assert actions == {"rollback", "quarantine", "shadow", "canary",
                       "promote", "demote", "reject"}
    digest = hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()
    assert digest == CONTROL_PLANE_DIGEST
