"""Tests for multi-hook deployment, syrupd status, and map sharing."""

import pytest

from repro import Hook, Machine, set_a, set_b
from repro.apps.rocksdb import RocksDbServer
from repro.ebpf import VerifierError
from repro.policies.builtin import HASH_BY_FLOW, ROUND_ROBIN
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY


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

    class Fifo:
        def schedule(self, status):
            return [
                (t, c.cid)
                for t, c in zip(status.runnable, status.idle_cores())
            ]

    app.deploy_policy(Fifo(), Hook.THREAD_SCHED)
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
