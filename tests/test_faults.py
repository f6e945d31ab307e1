"""Tests for repro.faults: plan building, injection mechanics, no-op default.

The two load-bearing properties (module docstring of repro.faults):
injections are deterministic under the plan's seed, and a machine built
with ``faults=None`` (or an *empty* plan) is bit-identical to one built
without the module in play at all.
"""

from types import SimpleNamespace

import pytest

from repro import FaultPlan, HealthPolicy, Hook, Machine, set_a, set_b
from repro.apps.mica import MicaServer
from repro.apps.rocksdb import RocksDbServer
from repro.ebpf.errors import VmFault
from repro.faults import FaultKind, FaultyProgram
from repro.policies.builtin import ROUND_ROBIN
from repro.sim.rng import RngStreams
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY, MICA_50_50


# ----------------------------------------------------------------------
# FaultPlan builder
# ----------------------------------------------------------------------
def test_plan_rejects_out_of_range_rate():
    with pytest.raises(ValueError):
        FaultPlan().vmfault(1.5)
    with pytest.raises(ValueError):
        FaultPlan().vmfault(-0.1)


def test_plan_builders_chain_and_filter():
    plan = (
        FaultPlan(seed=3)
        .vmfault(0.1)  # wildcard: any app, any hook
        .vmfault(0.2, app="a", hook=Hook.SOCKET_SELECT)
        .agent_crash("g", at_us=5_000.0)
        .nic_offload_down(at_us=1_000.0, restore_at_us=2_000.0)
        .core_stall(0, at_us=1_000.0, duration_us=500.0)
        .socket_saturate(8080, at_us=1_000.0, duration_us=500.0)
    )
    assert len(plan) == 6
    # the wildcard matches everything; the targeted spec only its target
    assert len(plan.vmfault_specs_for("a", Hook.SOCKET_SELECT)) == 2
    assert len(plan.vmfault_specs_for("b", Hook.CPU_REDIRECT)) == 1
    kinds = {spec.kind for spec in plan.specs}
    assert kinds == {
        FaultKind.VMFAULT, FaultKind.AGENT_CRASH,
        FaultKind.NIC_OFFLOAD_DOWN, FaultKind.CORE_STALL,
        FaultKind.SOCKET_SATURATE,
    }
    for spec in plan.specs:
        assert spec.as_dict()["kind"] == spec.kind


# ----------------------------------------------------------------------
# FaultyProgram
# ----------------------------------------------------------------------
class _Inner:
    name = "inner"

    def __init__(self):
        self.calls = 0

    def run(self, packet):
        self.calls += 1
        return ("pass", None)


def test_faulty_program_rate_zero_never_faults():
    plan = FaultPlan(seed=1).vmfault(0.0)
    prog = FaultyProgram(_Inner(), plan.specs, RngStreams(1).get("x"))
    for _ in range(100):
        assert prog.run(None) == ("pass", None)
    assert prog.faults_raised == 0


def test_faulty_program_rate_one_always_faults():
    plan = FaultPlan(seed=1).vmfault(1.0)
    inner = _Inner()
    prog = FaultyProgram(inner, plan.specs, RngStreams(1).get("x"))
    for _ in range(10):
        with pytest.raises(VmFault):
            prog.run(None)
    assert prog.faults_raised == 10
    assert inner.calls == 0  # fault preempts the real program
    # attribute delegation: everything but run() reaches the inner program
    assert prog.name == "inner"


def test_faulty_program_respects_time_window():
    plan = FaultPlan(seed=1).vmfault(1.0, start_us=10.0, until_us=20.0)
    clock = SimpleNamespace(now=0.0)
    prog = FaultyProgram(_Inner(), plan.specs, RngStreams(1).get("x"),
                         clock=clock)
    assert prog.run(None) == ("pass", None)  # before the window
    clock.now = 15.0
    with pytest.raises(VmFault):
        prog.run(None)
    clock.now = 20.0
    assert prog.run(None) == ("pass", None)  # window is half-open


# ----------------------------------------------------------------------
# Machine integration
# ----------------------------------------------------------------------
def drive_rocksdb(faults=None, health=None, rate=40_000, duration=30_000,
                  seed=7, metrics=True):
    machine = Machine(set_a(), seed=seed, metrics=metrics, faults=faults,
                      health=health)
    app = machine.register_app("r", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 4})
    gen = OpenLoopGenerator(machine, 8080, rate, GET_ONLY,
                            duration_us=duration)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    return machine, server, gen


def _fingerprint(faults):
    machine, server, gen = drive_rocksdb(faults=faults, metrics=False)
    return (
        gen.latency.count,
        round(gen.latency.p99(), 9),
        tuple(s.enqueued for s in server.sockets),
        machine.engine.events_dispatched,
    )


def test_empty_plan_is_bit_identical_to_no_faults():
    """Machine(faults=None) and an empty plan schedule zero extra events."""
    assert _fingerprint(None) == _fingerprint(FaultPlan(seed=5))


def test_vmfault_rate_one_drops_every_request():
    plan = FaultPlan(seed=9).vmfault(1.0, app="r", hook=Hook.SOCKET_SELECT)
    health = HealthPolicy(quarantine=False, max_faults=10**9)
    machine, server, gen = drive_rocksdb(faults=plan, health=health,
                                         rate=20_000, duration=10_000)
    assert gen.completed_in_window() == 0
    site = machine.netstack.socket_select_hook
    assert site.runtime_faults > 0
    assert site.runtime_faults == machine.faults.injected
    assert machine.obs.events.events(kind="fault_injected")
    assert machine.obs.events.events(kind="runtime_fault")
    rows = machine.syrupd.health()
    assert rows[0]["runtime_faults"] == site.runtime_faults
    assert rows[0]["state"] == "active"  # quarantine disabled


def test_core_stall_is_injected_and_traced():
    plan = FaultPlan(seed=2).core_stall(0, at_us=2_000.0, duration_us=3_000.0)
    machine, _server, gen = drive_rocksdb(faults=plan)
    events = machine.obs.events.events(kind="fault_injected")
    assert [e["fault"] for e in events] == [FaultKind.CORE_STALL]
    assert machine.faults.injected == 1
    assert gen.completed_in_window() > 0  # the machine recovers


def test_socket_saturate_drops_then_restores():
    plan = FaultPlan(seed=2).socket_saturate(8080, at_us=5_000.0,
                                             duration_us=5_000.0)
    machine, server, gen = drive_rocksdb(faults=plan, rate=60_000,
                                         duration=30_000)
    faults = [e["fault"]
              for e in machine.obs.events.events(kind="fault_injected")]
    assert FaultKind.SOCKET_SATURATE in faults
    assert FaultKind.SOCKET_RESTORE in faults
    # zero backlog during the window: enqueues on the port drop
    assert sum(s.drops for s in server.sockets) > 0
    # and service resumes after the restore
    assert gen.completed_in_window() > 0
    assert all(s.backlog > 0 for s in server.sockets)


def test_nic_offload_down_falls_back_to_host_and_restores():
    """XDP_OFFLOAD graceful degradation: offload → XDP_SKB → offload."""
    plan = FaultPlan(seed=2).nic_offload_down(at_us=3_000.0,
                                              restore_at_us=7_000.0)
    machine = Machine(set_b(8), seed=4, metrics=True, faults=plan)
    app = machine.register_app("mica", ports=[9090])
    server = MicaServer(machine, app, 9090, num_threads=8, mode="syrup_hw")
    deployed = server.deploy_policy()
    gen = OpenLoopGenerator(machine, 9090, 300_000, MICA_50_50,
                            duration_us=12_000, num_flows=64)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    events = machine.obs.events
    fallback = events.events(kind="offload_fallback")
    restore = events.events(kind="offload_restore")
    assert len(fallback) == 1 and len(restore) == 1
    assert fallback[0]["from_hook"] == Hook.XDP_OFFLOAD
    assert fallback[0]["ts"] < restore[0]["ts"]
    # round trip complete: back on the offload hook, still active
    assert deployed.hook == Hook.XDP_OFFLOAD
    assert deployed.fallback_from is None
    assert deployed.state == "active"
    # the host path kept steering to home sockets; only packets in
    # flight across a transition boundary may land on the wrong socket
    assert server.misroutes <= 5
    assert gen.completed_in_window() == gen.sent_in_window()
