"""Tests for the Syrup core: maps, executors, hook sites, syrupd, API."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import DROP, Hook, IsolationError, Machine, PASS, set_a, set_b
from repro.core.api import (
    syr_map_close,
    syr_map_lookup_elem,
    syr_map_open,
    syr_map_update_elem,
)
from repro.core.executors import ExecutorMap
from repro.core.hooks import HookSite
from repro.core.maps import MapRegistry, PermissionDenied, SyrupMap
from repro.config import CostModel, NicSpec
from repro.ebpf.compiler import compile_policy
from repro.ebpf.program import load_program
from repro.net.packet import FiveTuple, Packet, build_payload
from repro.obs import Observability
from repro.obs.registry import MetricsRegistry

FLOW = FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 17)


def make_packet(dst_port=8080, rtype=1):
    return Packet(FLOW._replace(dst_port=dst_port), build_payload(rtype))


# ----------------------------------------------------------------------
# Maps / registry
# ----------------------------------------------------------------------
def make_registry():
    return MapRegistry(CostModel(), NicSpec())


def test_registry_create_and_reopen_same_map():
    reg = make_registry()
    a = reg.create("app", "m", size=16)
    b = reg.create("app", "m", size=99)
    assert a is b


def test_registry_permission_denied_for_private_maps():
    reg = make_registry()
    reg.create("alice", "secret", size=8)
    path = reg.pin_path("alice", "secret")
    assert reg.open(path, "alice") is not None
    with pytest.raises(PermissionDenied):
        reg.open(path, "bob")


def test_registry_shared_maps_open_cross_app():
    reg = make_registry()
    reg.create("alice", "pub", size=8, shared=True)
    assert reg.open(reg.pin_path("alice", "pub"), "bob") is not None


def test_registry_unknown_path():
    reg = make_registry()
    with pytest.raises(KeyError):
        reg.open("/sys/fs/bpf/syrup/nobody/none", "x")


def test_map_placement_latencies():
    reg = make_registry()
    host = reg.create("a", "h", placement="host")
    offload = reg.create("a", "o", placement="offload")
    assert host.op_latency_us() == pytest.approx(1.0)
    assert offload.op_latency_us() == pytest.approx(24.0)
    assert offload.op_latency_us(contended=True) > offload.op_latency_us()


def test_map_userspace_accounting():
    reg = make_registry()
    m = reg.create("a", "m")
    m.update(1, 10)
    m.lookup(1)
    m.atomic_add(1, 5)
    m.delete(1)
    assert m.userspace_ops == 4
    assert m.userspace_time_us == pytest.approx(4.0)


MAP_OPS = {"lookup": "lookups", "update": "updates", "delete": "deletes",
           "atomic_add": "atomic_adds"}
MAP_OP_ARGS = {"lookup": 1, "update": 2, "delete": 1, "atomic_add": 2}


@settings(max_examples=100, deadline=None)
@given(metrics=st.booleans(),
       ops=st.lists(st.tuples(st.sampled_from(["host", "offload"]),
                              st.sampled_from(sorted(MAP_OPS)),
                              st.booleans(),
                              st.integers(0, 3), st.integers(0, 9)),
                    max_size=60))
def test_inline_map_accounting_matches_a_reference_accumulator(metrics, ops):
    """Every userspace op books exactly what the old ``_account`` chain
    booked: the reference below is that chain, written from the public
    ``op_latency_us()``, against a registry of its own."""
    obs = Observability(enabled=metrics)
    reg = MapRegistry(CostModel(), NicSpec(), obs=obs)
    maps = {placement: reg.create("a", placement, placement=placement)
            for placement in ("host", "offload")}
    expected = MetricsRegistry()
    expected_ops = dict.fromkeys(maps, 0)
    expected_time = dict.fromkeys(maps, 0.0)
    if metrics:   # MapRegistry.create registers every series up front
        for name in maps:
            for op in (*MAP_OPS.values(), "contended"):
                expected.counter("a", "maps", f"{name}.{op}")
            expected.sketch("a", "maps", f"{name}.op_latency_us")

    for placement, op, contended, key, value in ops:
        syrup_map = maps[placement]
        args = (key, value)[:MAP_OP_ARGS[op]]
        getattr(syrup_map, op)(*args, contended=contended)
        latency = syrup_map.op_latency_us(contended)
        expected_ops[placement] += 1
        expected_time[placement] += latency
        if metrics:
            expected.counter("a", "maps", f"{placement}.{MAP_OPS[op]}").inc()
            if contended:
                expected.counter("a", "maps", f"{placement}.contended").inc()
            expected.sketch(
                "a", "maps", f"{placement}.op_latency_us").observe(latency)

    for placement, syrup_map in maps.items():
        assert syrup_map.userspace_ops == expected_ops[placement]
        assert syrup_map.userspace_time_us == expected_time[placement]  # ==
    assert obs.snapshot() == expected.snapshot()


def test_map_costs_are_read_once_at_pin_time():
    """``op_latency_us()`` and the booked time share one source: changing
    the cost model after ``create()`` moves neither."""
    costs = CostModel()
    m = MapRegistry(costs, NicSpec()).create("a", "m")
    before = (m.op_latency_us(), m.op_latency_us(contended=True))
    costs.host_map_access_us = 7.0
    m.lookup(1)
    m.update(1, 2, contended=True)
    assert (m.op_latency_us(), m.op_latency_us(contended=True)) == before
    assert m.userspace_time_us == 0.0 + before[0] + before[1]
    with pytest.raises(TypeError):      # the cost models are not optional
        SyrupMap(m.bpf_map, "a", "/p")


def test_map_ops_still_reach_the_raw_map():
    m = make_registry().create("a", "m")
    m.update(1, 10, contended=True)
    assert m.lookup(1) == 10 and m.lookup(2, contended=True) is None
    assert m.atomic_add(1, 5) == 15
    m.delete(1)
    assert m.lookup(1) is None and m.userspace_ops == 6


def test_map_kinds():
    reg = make_registry()
    arr = reg.create("a", "arr", size=4, kind="array")
    assert arr.bpf_map.kind == "array"
    with pytest.raises(ValueError):
        reg.create("a", "bad", kind="treap")


# ----------------------------------------------------------------------
# Executor maps
# ----------------------------------------------------------------------
def test_executor_map_set_resolve():
    em = ExecutorMap("x", max_entries=4)
    em.set(0, "sock0")
    assert em.resolve(0) == "sock0"
    assert em.resolve(3) is None
    assert em.invalid_lookups == 1
    assert 0 in em and 3 not in em


def test_executor_map_rejects_out_of_range():
    em = ExecutorMap("x", max_entries=4)
    with pytest.raises(KeyError):
        em.set(4, "nope")
    with pytest.raises(KeyError):
        em.set(-1, "nope")


def test_executor_map_populate():
    em = ExecutorMap("x", max_entries=8)
    em.populate(["a", "b", "c"])
    assert [em.resolve(i) for i in range(3)] == ["a", "b", "c"]


# ----------------------------------------------------------------------
# Hook site dispatch / isolation
# ----------------------------------------------------------------------
def deploy_to_site(site, app_name, ports, source, executors, constants=None):
    loaded = load_program(compile_policy(source, constants=constants))
    return site.install(app_name, ports, loaded, executors)


def test_hook_site_dispatches_by_port():
    site = HookSite(Hook.SOCKET_SELECT, CostModel())
    ex_a = ExecutorMap("a")
    ex_a.populate(["sa0", "sa1"])
    ex_b = ExecutorMap("b")
    ex_b.populate(["sb0"])
    deploy_to_site(site, "alice", [8080], "def schedule(pkt):\n    return 1\n", ex_a)
    deploy_to_site(site, "bob", [9090], "def schedule(pkt):\n    return 0\n", ex_b)
    assert site.decide(make_packet(8080)) == ("target", "sa1")
    assert site.decide(make_packet(9090)) == ("target", "sb0")
    assert site.decide(make_packet(7777)) == ("none", None)


def test_hook_site_pass_drop():
    site = HookSite(Hook.SOCKET_SELECT, CostModel())
    deploy_to_site(site, "a", [8080],
                   "def schedule(pkt):\n    return PASS\n", ExecutorMap("e"))
    deploy_to_site(site, "a", [8081],
                   "def schedule(pkt):\n    return DROP\n", ExecutorMap("e"))
    assert site.decide(make_packet(8080)) == ("pass", None)
    assert site.decide(make_packet(8081)) == ("drop", None)
    assert site.pass_decisions == 1 and site.drop_decisions == 1


def test_hook_site_unpopulated_executor_falls_back_to_pass():
    site = HookSite(Hook.SOCKET_SELECT, CostModel())
    executors = ExecutorMap("e")
    deploy_to_site(site, "a", [8080],
                   "def schedule(pkt):\n    return 7\n", executors)
    assert site.decide(make_packet(8080)) == ("pass", None)
    assert executors.invalid_lookups == 1 and site.pass_decisions == 1


def test_hook_site_port_conflict_between_apps():
    site = HookSite(Hook.SOCKET_SELECT, CostModel())
    deploy_to_site(site, "alice", [8080],
                   "def schedule(pkt):\n    return PASS\n", ExecutorMap("e"))
    with pytest.raises(PermissionError):
        deploy_to_site(site, "bob", [8080],
                       "def schedule(pkt):\n    return PASS\n", ExecutorMap("e"))


def test_hook_site_cost_reflects_policy():
    site = HookSite(Hook.SOCKET_SELECT, CostModel())
    deploy_to_site(site, "a", [8080],
                   "def schedule(pkt):\n    return 0\n", ExecutorMap("e"))
    assert site.cost_us(make_packet(8080)) > 0.0
    assert site.cost_us(make_packet(9999)) == 0.0


def test_hook_site_uninstall():
    site = HookSite(Hook.SOCKET_SELECT, CostModel())
    deploy_to_site(site, "a", [8080],
                   "def schedule(pkt):\n    return PASS\n", ExecutorMap("e"))
    site.uninstall("a", [8080])
    assert site.decide(make_packet(8080)) == ("none", None)


# ----------------------------------------------------------------------
# Syrupd / App API
# ----------------------------------------------------------------------
def test_register_app_port_ownership():
    machine = Machine(set_a())
    machine.register_app("a", ports=[8080])
    with pytest.raises(IsolationError):
        machine.register_app("b", ports=[8080])
    with pytest.raises(ValueError):
        machine.register_app("a", ports=[9090])


def test_deploy_rejects_foreign_ports():
    machine = Machine(set_a())
    app = machine.register_app("a", ports=[8080])
    machine.register_app("b", ports=[9090])
    with pytest.raises(IsolationError):
        app.deploy_policy("def schedule(pkt):\n    return PASS\n",
                          Hook.SOCKET_SELECT, ports=[9090])


def test_deploy_unknown_hook_rejected():
    machine = Machine(set_a())
    app = machine.register_app("a", ports=[8080])
    with pytest.raises(ValueError):
        app.deploy_policy("def schedule(pkt):\n    return PASS\n", "nonsense")


def test_deploy_creates_pinned_maps():
    machine = Machine(set_a())
    app = machine.register_app("a", ports=[8080])
    src = 'm = syr_map("mymap", 32)\n\ndef schedule(pkt):\n    return map_lookup(m, 0)\n'
    deployed = app.deploy_policy(src, Hook.SOCKET_SELECT)
    handle = app.map_open(app.map_path("mymap"))
    handle.update(0, 5)
    assert deployed.program.maps[0].lookup(0) == 5  # same underlying map


def test_thread_hook_requires_ghost():
    machine = Machine(set_a(), scheduler="pinned")

    class P:
        def schedule(self, status):
            return []

    app = machine.register_app("a", ports=[8080])
    with pytest.raises(ValueError):
        app.deploy_policy(P(), Hook.THREAD_SCHED)


def test_thread_hook_requires_schedule_method():
    machine = Machine(set_a(), scheduler="ghost")
    app = machine.register_app("a", ports=[8080])
    with pytest.raises(TypeError):
        app.deploy_policy(lambda status: [], Hook.THREAD_SCHED)


def test_xdp_drv_requires_zero_copy_nic():
    machine = Machine(set_b())  # Netronome: no zero copy
    app = machine.register_app("a", ports=[8080])
    with pytest.raises(ValueError):
        app.deploy_policy("def schedule(pkt):\n    return PASS\n", Hook.XDP_DRV)


def test_xdp_offload_only_on_capable_nic():
    machine = Machine(set_a())  # Intel: no offload
    app = machine.register_app("a", ports=[8080])
    with pytest.raises(ValueError):
        app.deploy_policy("def schedule(pkt):\n    return PASS\n",
                          Hook.XDP_OFFLOAD)


def test_integer_executors_prepopulated():
    machine = Machine(set_b())
    app = machine.register_app("a", ports=[8080])
    app.deploy_policy("def schedule(pkt):\n    return 0\n", Hook.CPU_REDIRECT)
    em = app.executor_map(Hook.CPU_REDIRECT)
    assert len(em) == machine.config.num_softirq_cores
    assert em.resolve(0) == 0


def test_table1_free_functions():
    machine = Machine(set_a())
    app = machine.register_app("a", ports=[8080])
    app.create_map("m", size=8)
    handle = syr_map_open(app, app.map_path("m"))
    assert syr_map_update_elem(handle, 1, 42) == 0
    assert syr_map_lookup_elem(handle, 1) == 42
    assert syr_map_lookup_elem(handle, 9) is None
    assert syr_map_close(handle) == 0


def test_register_socket_ownership_check():
    machine = Machine(set_a())
    alice = machine.register_app("alice", ports=[8080])
    bob = machine.register_app("bob", ports=[9090])
    sock = machine.create_udp_socket(alice, 8080)
    with pytest.raises(PermissionError):
        bob.register_socket(sock, 0)
