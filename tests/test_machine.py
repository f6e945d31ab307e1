"""Tests for Machine assembly and configuration plumbing."""

import pytest

from repro import FaultPlan, Hook, Machine, MachineConfig, set_a, set_b
from repro.apps.rocksdb import RocksDbServer
from repro.config import CostModel, NicSpec, with_costs
from repro.ghost.sched import GhostScheduler
from repro.kernel.cfs import CfsScheduler
from repro.kernel.sched import PinnedScheduler
from repro.policies.builtin import ROUND_ROBIN
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY


def test_default_machine():
    machine = Machine()
    assert len(machine.cores) == 6
    assert machine.agent_core is None
    assert isinstance(machine.scheduler, PinnedScheduler)
    assert machine.now == 0.0


def test_scheduler_selection():
    assert isinstance(Machine(scheduler="cfs").scheduler, CfsScheduler)
    ghost = Machine(scheduler="ghost")
    assert isinstance(ghost.scheduler, GhostScheduler)
    assert ghost.agent_core is ghost.cores[-1]
    assert len(ghost.scheduler.cores) == 5
    with pytest.raises(ValueError):
        Machine(scheduler="fifo")


def test_ghost_needs_two_cores():
    with pytest.raises(ValueError):
        Machine(MachineConfig(num_app_cores=1), scheduler="ghost")


def test_set_a_set_b_profiles():
    a = set_a()
    b = set_b()
    assert a.nic.zero_copy and not a.nic.supports_offload
    assert b.nic.supports_offload and not b.nic.zero_copy
    assert a.costs.cpu_ghz == 2.3
    assert b.costs.cpu_ghz == 2.0
    assert set_a(4).num_app_cores == 4
    assert set_b(8).nic.num_queues == 8


def test_with_costs_copies():
    base = set_a()
    tweaked = with_costs(base, recv_syscall_us=9.0)
    assert tweaked.costs.recv_syscall_us == 9.0
    assert base.costs.recv_syscall_us != 9.0  # original untouched


def test_cycles_to_us():
    costs = CostModel(cpu_ghz=2.0)
    assert costs.cycles_to_us(2000) == pytest.approx(1.0)


def test_nic_wired_to_netstack():
    machine = Machine(set_a())
    assert machine.nic.deliver == machine.netstack.deliver_from_nic


def test_rss_salt_is_seeded():
    a = Machine(set_a(), seed=1)
    b = Machine(set_a(), seed=1)
    c = Machine(set_a(), seed=2)
    assert a.nic.salt == b.nic.salt
    assert a.nic.salt != c.nic.salt


def test_create_udp_socket_binds_unless_af_xdp():
    machine = Machine(set_a())
    app = machine.register_app("a", ports=[8080])
    normal = machine.create_udp_socket(app, 8080)
    af = machine.create_udp_socket(app, 8080, is_af_xdp=True)
    group = machine.netstack.socket_table.group(8080)
    assert normal in group.sockets
    assert af not in group.sockets
    assert normal.backlog == machine.config.socket_backlog


def test_run_until():
    machine = Machine(set_a())
    machine.run(until=123.0)
    assert machine.now == 123.0


def test_sliced_run_equals_one_run():
    # The fault plan is armed at construction and run() only arms the
    # recorder and the signal bus (idempotently): slices replay one run.
    def outcome(*untils):
        plan = (FaultPlan(seed=5)
                .vmfault(0.01, app="r", hook=Hook.SOCKET_SELECT)
                .core_stall(0, at_us=4_000.0, duration_us=500.0)
                .socket_saturate(8080, at_us=6_000.0, duration_us=300.0))
        machine = Machine(set_a(), seed=3, metrics=True, timeseries=500.0,
                          signals=1_000.0, faults=plan)
        app = machine.register_app("r", ports=[8080])
        server = RocksDbServer(machine, app, 8080, 4)
        app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                          constants={"NUM_THREADS": 4})
        gen = OpenLoopGenerator(machine, 8080, 40_000, GET_ONLY,
                                duration_us=10_000)
        server.response_sink = gen.deliver_response
        machine.signals.add_signal(
            "backlog", lambda: sum(len(s) for s in server.sockets))
        # the bus and the recorder would keep each other's heap alive
        machine.signals.active = lambda: machine.now < 10_000
        gen.start()
        for until in untils:
            machine.run(until=until)
        machine.run()
        return (gen.latency.count, gen.latency.p99(),
                machine.engine.events_dispatched, machine.signals.ticks,
                machine.obs.recorder.samples_taken, machine.faults.injected)

    assert outcome(3_000.0, 7_500.0) == outcome()


def test_nic_spec_validation_is_dataclass_defaults():
    spec = NicSpec()
    assert spec.ring_size > 0
    assert spec.offload_map_access_us > spec.rx_process_us
