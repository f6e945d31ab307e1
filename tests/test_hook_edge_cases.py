"""Edge cases across hook provisioning and cross-hook interactions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Hook, Machine, set_a, set_b
from repro.apps.mica import MicaServer
from repro.apps.rocksdb import RocksDbServer
from repro.config import CostModel
from repro.core.hooks import HookSite
from repro.experiments.runner import RocksDbTestbed
from repro.policies.builtin import HASH_BY_FLOW, ROUND_ROBIN
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY


def test_xdp_mode_conflict_rejected():
    machine = Machine(set_a(), seed=81)
    app = machine.register_app("a", ports=[8080, 8081])
    # AF_XDP socket as executor for XDP hooks
    sock = machine.create_udp_socket(app, 8080, is_af_xdp=True)
    app.register_socket(sock, 0, hook=Hook.XDP_DRV)
    app.deploy_policy("def schedule(pkt):\n    return 0\n", Hook.XDP_DRV,
                      ports=[8080])
    with pytest.raises(ValueError) as err:
        app.deploy_policy("def schedule(pkt):\n    return 0\n", Hook.XDP_SKB,
                          ports=[8081])
    assert "mode" in str(err.value)


def test_same_xdp_mode_multiple_apps_coexist():
    machine = Machine(set_b(), seed=81)
    a = machine.register_app("a", ports=[8080])
    b = machine.register_app("b", ports=[9090])
    for app, port in ((a, 8080), (b, 9090)):
        sock = machine.create_udp_socket(app, port, is_af_xdp=True)
        app.register_socket(sock, 0, hook=Hook.XDP_SKB)
        app.deploy_policy("def schedule(pkt):\n    return 0\n", Hook.XDP_SKB)
    site = machine.netstack.xdp_hook
    assert site.attachment_for_port(8080).app_name == "a"
    assert site.attachment_for_port(9090).app_name == "b"


def test_executor_maps_are_per_hook():
    machine = Machine(set_b(), seed=82)
    app = machine.register_app("a", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4)
    em_select = app.executor_map(Hook.SOCKET_SELECT)
    em_redirect = app.executor_map(Hook.CPU_REDIRECT)
    assert em_select is not em_redirect
    assert len(em_select) == 4       # sockets registered by the server
    assert len(em_redirect) == 0     # prepopulated only at deploy time


def test_socket_select_and_cpu_redirect_compose():
    """Two network hooks active at once for the same app."""
    machine = Machine(set_a(), seed=83)
    app = machine.register_app("a", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    app.deploy_policy(HASH_BY_FLOW, Hook.CPU_REDIRECT,
                      constants={"NUM_EXECUTORS": 6})
    gen = OpenLoopGenerator(machine, 8080, 50_000, GET_ONLY,
                            duration_us=20_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    assert gen.drop_fraction() == 0.0
    # both policies actually executed
    rows = {r["hook"]: r for r in machine.syrupd.status()}
    assert rows[Hook.SOCKET_SELECT]["invocations"] > 0
    assert rows[Hook.CPU_REDIRECT]["invocations"] > 0
    # round robin still balanced perfectly despite redirect in front
    counts = [s.enqueued for s in server.sockets]
    assert max(counts) - min(counts) <= 1


def test_hash_by_flow_policy_recreates_vanilla_behaviour():
    """Portability sanity: HASH_BY_FLOW at Socket Select behaves like the
    kernel default — per-flow stable assignment."""
    machine = Machine(set_a(), seed=84)
    app = machine.register_app("a", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6)
    app.deploy_policy(HASH_BY_FLOW, Hook.SOCKET_SELECT,
                      constants={"NUM_EXECUTORS": 6})
    gen = OpenLoopGenerator(machine, 8080, 30_000, GET_ONLY,
                            duration_us=30_000, num_flows=4)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    # at most 4 sockets used (one per flow), each flow sticky
    used = sum(1 for s in server.sockets if s.enqueued > 0)
    assert used <= 4


def test_status_empty_before_deploys():
    machine = Machine(set_a(), seed=85)
    machine.register_app("a", ports=[8080])
    assert machine.syrupd.status() == []


def test_hook_constants_closed_sets():
    assert set(Hook.NETWORK) < set(Hook.ALL)
    assert Hook.THREAD_SCHED in Hook.ALL
    assert set(Hook.INTEGER_EXECUTORS) <= set(Hook.NETWORK)


# ----------------------------------------------------------------------
# PROG_ARRAY slots: freed on uninstall, reused lowest-first
# ----------------------------------------------------------------------
def live_attachments(site, apps=("a", "b", "c", "rocksdb")):
    return [a for app in apps for a in site.attachments_for(app)]


def assert_slots_match(site):
    """Every live attachment's slot holds its program, and nothing else
    holds a slot."""
    live = list(live_attachments(site))
    for attachment in live:
        assert site.prog_array.lookup(attachment.prog_index) \
            is attachment.program
    assert len(site.prog_array) == len(live)


def test_deploy_undeploy_cycles_reuse_one_slot():
    testbed = RocksDbTestbed(num_threads=6, seed=3)
    app = testbed.app
    for _ in range(200):  # 64 slots: the 65th cycle used to raise KeyError
        app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                          constants={"NUM_THREADS": 6})
        site = testbed.machine.netstack.socket_select_hook
        assert site.attachment_for_port(8080).prog_index == 0
        assert_slots_match(site)
        app.undeploy_policy(Hook.SOCKET_SELECT)
        assert len(site.prog_array) == 0


def test_offload_flaps_reuse_one_slot_per_site():
    machine = Machine(set_b(8), seed=4)
    app = machine.register_app("mica", ports=[9090])
    server = MicaServer(machine, app, 9090, num_threads=8, mode="syrup_hw")
    deployed = server.deploy_policy()
    syrupd = machine.syrupd
    for _ in range(70):
        syrupd.handle_offload_failure()
        assert deployed.hook == Hook.XDP_SKB and deployed.state == "active"
        syrupd.handle_offload_restore()
        assert deployed.hook == Hook.XDP_OFFLOAD
    offload = syrupd._sites[Hook.XDP_OFFLOAD]
    host = syrupd._sites[Hook.XDP_SKB]
    assert offload.attachment_for_port(9090).program is deployed.program
    assert len(offload.prog_array) == 1 and len(host.prog_array) == 0


class _Program:
    """A stand-in binding: install / replace / uninstall only store it."""


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["install", "replace", "uninstall"]),
              st.sampled_from(["a", "b", "c"]),
              st.sets(st.integers(0, 5), min_size=1, max_size=3)),
    max_size=40,
))
def test_prog_array_tracks_live_attachments(ops):
    site = HookSite(Hook.SOCKET_SELECT, CostModel(), max_programs=8)
    for op, app_name, ports in ops:
        if op == "install":
            owners = {site.attachment_for_port(p).app_name for p in ports
                      if site.attachment_for_port(p) is not None}
            if owners - {app_name}:
                with pytest.raises(PermissionError):
                    site.install(app_name, ports, _Program(), None)
            else:
                taken = {a.prog_index for a in live_attachments(site)}
                lowest = min(set(range(len(taken) + 1)) - taken)
                attachment = site.install(app_name, ports, _Program(), None)
                assert attachment.prog_index == lowest
        elif op == "replace":
            site.replace(app_name, _Program())
        else:
            site.uninstall(app_name, ports)
        assert_slots_match(site)
