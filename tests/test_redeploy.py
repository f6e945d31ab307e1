"""Undeploy → redeploy cycles at every network hook.

Regression coverage for two seed bugs: ``Syrupd.undeploy`` used to leave
the entry in the deployment table (so ``status()`` kept reporting dead
policies), and ``DeployedPolicy`` allocated fds from a class-level
counter shared across machines.  Plus the hot-swap ``redeploy()`` path:
same fd, metrics not double-registered, dispatch never interrupted.
"""

import pytest

from repro import Hook, Machine, set_a, set_b
from repro.apps.mica import MicaServer
from repro.apps.rocksdb import RocksDbServer
from repro.ebpf import VerifierError, compile_policy
from repro.net.packet import FiveTuple, Packet
from repro.policies.builtin import HASH_BY_FLOW, MICA_HASH, ROUND_ROBIN
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY, MICA_50_50

NETWORK_HOOKS = [Hook.SOCKET_SELECT, Hook.CPU_REDIRECT, Hook.XDP_SKB,
                 Hook.XDP_DRV, Hook.XDP_OFFLOAD]


class _Harness:
    """One machine + server + per-hook deploy/drive closures."""

    def __init__(self, hook):
        self.hook = hook
        if hook in (Hook.SOCKET_SELECT, Hook.CPU_REDIRECT):
            config = set_a() if hook == Hook.SOCKET_SELECT else set_b()
            self.machine = Machine(config, seed=5, metrics=True)
            self.app = self.machine.register_app("app", ports=[8080])
            self.server = RocksDbServer(self.machine, self.app, 8080, 4)
            self.port, self.rate, self.mix = 8080, 30_000, GET_ONLY
            if hook == Hook.SOCKET_SELECT:
                self.policy = ROUND_ROBIN
                self.constants = {"NUM_THREADS": 4}
            else:
                self.policy = HASH_BY_FLOW
                self.constants = {"NUM_EXECUTORS": 4}
        else:
            # XDP hooks: MICA. set_b lacks zero copy (XDP_SKB host path,
            # offload-capable); set_a is zero copy (native XDP_DRV).
            config = set_a(8) if hook == Hook.XDP_DRV else set_b(8)
            mode = "syrup_hw" if hook == Hook.XDP_OFFLOAD else "syrup_sw"
            self.machine = Machine(config, seed=5, metrics=True)
            self.app = self.machine.register_app("mica", ports=[9090])
            self.server = MicaServer(self.machine, self.app, 9090,
                                     num_threads=8, mode=mode)
            assert self.server.kernel_xdp_hook() == hook \
                or hook == Hook.XDP_OFFLOAD
            self.port, self.rate, self.mix = 9090, 200_000, MICA_50_50
            self.policy = MICA_HASH
            self.constants = {"NUM_EXECUTORS": 8}

    def deploy(self):
        return self.app.deploy_policy(self.policy, self.hook,
                                      constants=self.constants)

    def drive(self, duration=8_000):
        gen = OpenLoopGenerator(self.machine, self.port, self.rate,
                                self.mix, duration_us=duration,
                                num_flows=64)
        self.server.response_sink = gen.deliver_response
        gen.start()
        self.machine.run()
        return gen

    def site(self):
        machine = self.machine
        if self.hook == Hook.SOCKET_SELECT:
            return machine.netstack.socket_select_hook
        if self.hook == Hook.CPU_REDIRECT:
            return machine.netstack.cpu_redirect_hook
        if self.hook == Hook.XDP_OFFLOAD:
            return machine.nic.classifier
        return machine.netstack.xdp_hook


@pytest.mark.parametrize("hook", NETWORK_HOOKS)
def test_undeploy_redeploy_cycle(hook):
    harness = _Harness(hook)
    machine, app = harness.machine, harness.app
    first = harness.deploy()
    gen1 = harness.drive()
    assert gen1.completed_in_window() == gen1.sent_in_window()

    assert app.undeploy_policy(hook) == 1
    # the table entry is actually gone (seed bug: it used to linger)
    assert first not in machine.syrupd.deployed
    assert first.state == "undeployed"
    assert machine.syrupd.status() == []
    # the site dispatches kernel-default again
    pkt = Packet(FiveTuple(1, 2, 3, harness.port, 17), b"x" * 16)
    assert harness.site().decide(pkt) == ("none", None)
    # the undeploy event names the removed deployment's fd
    events = machine.obs.events.events(kind="undeploy")
    assert events and events[-1]["fd"] == first.fd

    reg_len = len(machine.obs.registry)
    second = harness.deploy()
    assert second.fd != first.fd
    gen2 = harness.drive()
    assert gen2.completed_in_window() == gen2.sent_in_window()
    # same app/hook series names: the registry dedupes, nothing doubles
    assert len(machine.obs.registry) == reg_len


def test_hot_swap_redeploy_keeps_fd_and_metrics():
    harness = _Harness(Hook.SOCKET_SELECT)
    machine, app = harness.machine, harness.app
    deployed = harness.deploy()
    gen1 = harness.drive()
    fd = deployed.fd

    swapped = app.redeploy_policy(HASH_BY_FLOW, Hook.SOCKET_SELECT,
                                  constants={"NUM_EXECUTORS": 4})
    assert swapped is deployed  # in-place swap, same fd
    assert deployed.fd == fd
    assert deployed.last_good is not None
    assert machine.obs.events.events(kind="redeploy")

    reg_len = len(machine.obs.registry)
    gen2 = harness.drive()
    assert gen2.completed_in_window() == gen2.sent_in_window()
    assert len(machine.obs.registry) == reg_len
    # the per-hook invocation counter carried across the swap: both
    # programs incremented the same (deduped) registry series
    counter = machine.obs.registry.counter("app", Hook.SOCKET_SELECT,
                                           "invocations")
    assert counter.value == gen1.sent_in_window() + gen2.sent_in_window()


def test_redeploy_requires_active_deployment():
    machine = Machine(set_a(), seed=6)
    app = machine.register_app("app", ports=[8080])
    RocksDbServer(machine, app, 8080, 4)
    with pytest.raises(ValueError):
        app.redeploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                            constants={"NUM_THREADS": 4})


def test_redeploy_rejects_thread_sched():
    machine = Machine(set_a(), seed=6, scheduler="ghost")
    app = machine.register_app("app", ports=[8080])
    with pytest.raises(ValueError):
        machine.syrupd.redeploy(app, object(), Hook.THREAD_SCHED)


def test_fds_are_per_daemon_not_global():
    def first_fd():
        machine = Machine(set_a(), seed=1)
        app = machine.register_app("app", ports=[8080])
        RocksDbServer(machine, app, 8080, 2)
        return app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                                 constants={"NUM_THREADS": 2}).fd

    # seed bug: a class-level counter made the second machine's fds
    # continue from the first's
    assert first_fd() == first_fd()


# ----------------------------------------------------------------------
# Load once, attach many: the image is shared, a binding's state is not
# ----------------------------------------------------------------------
def test_two_machines_share_an_image_but_not_round_robin_state():
    def machine_with_round_robin():
        harness = _Harness(Hook.SOCKET_SELECT)
        return harness, harness.deploy()

    first, deployed_1 = machine_with_round_robin()
    first.drive()  # advances the first machine's idx well past 0
    second, deployed_2 = machine_with_round_robin()
    assert deployed_2.program.image is deployed_1.program.image
    assert deployed_2.program is not deployed_1.program
    assert deployed_1.program.globals != [0]
    assert deployed_2.program.globals == [0]
    # idx starts at 0 on every machine, so the first verdict is (0 + 1) % 4
    # however far the other machine's binding has counted
    packet = Packet(FiveTuple(1, 2, 3, second.port, 17), b"x" * 16)
    assert second.site().decide(packet) == (
        "target", second.server.sockets[1])


def test_redeploy_a_b_a_keeps_b_as_last_good_and_restarts_a():
    harness = _Harness(Hook.SOCKET_SELECT)
    app = harness.app
    deployed = harness.deploy()
    first_a = deployed.program
    harness.drive()
    assert first_a.globals != [0] and first_a.invocations > 32

    app.redeploy_policy(HASH_BY_FLOW, Hook.SOCKET_SELECT,
                        constants={"NUM_EXECUTORS": 4})
    b = deployed.program
    assert deployed.last_good is first_a
    app.redeploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                        constants=harness.constants)
    second_a = deployed.program
    assert deployed.last_good is b
    # same verified image, a fresh binding: globals, profile and count
    # start over instead of resuming where the first A stopped
    assert second_a is not first_a and second_a.image is first_a.image
    assert second_a.globals == second_a.program.globals_init == [0]
    assert second_a.invocations == 0
    assert second_a.cycle_estimate == float(second_a.image.static_cycles)
    assert first_a.cycle_estimate != second_a.cycle_estimate


def test_redeploy_ports_must_be_the_deployments_port_set():
    machine = Machine(set_a(), seed=6)
    app = machine.register_app("app", ports=[8080, 8081])
    other = machine.register_app("other", ports=[9090])
    RocksDbServer(machine, app, 8080, 4)
    deployed = app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                                 constants={"NUM_THREADS": 4})
    before = deployed.program
    # isolation first, as for deploy: a foreign port is denied outright
    with pytest.raises(PermissionError):
        app.redeploy_policy(HASH_BY_FLOW, Hook.SOCKET_SELECT,
                            constants={"NUM_EXECUTORS": 4}, ports=[9090])
    # a subset would silently swap 8081 too: refused, naming both sets
    with pytest.raises(ValueError, match=r"\[8080\].*\[8080, 8081\]"):
        app.redeploy_policy(HASH_BY_FLOW, Hook.SOCKET_SELECT,
                            constants={"NUM_EXECUTORS": 4}, ports=[8080])
    assert deployed.program is before and deployed.last_good is None
    app.redeploy_policy(HASH_BY_FLOW, Hook.SOCKET_SELECT,
                        constants={"NUM_EXECUTORS": 4}, ports=[8081, 8080])
    assert deployed.program is not before and deployed.last_good is before
    assert other.ports == [9090]


def test_a_rejected_text_is_rejected_and_counted_on_every_attempt():
    harness = _Harness(Hook.SOCKET_SELECT)
    machine, app = harness.machine, harness.app
    deployed = harness.deploy()
    good = deployed.program
    unsafe = "def schedule(pkt):\n    return load_u32(pkt, 0)\n"
    for _ in range(3):
        with pytest.raises(VerifierError):
            app.redeploy_policy(unsafe, Hook.SOCKET_SELECT)
    assert deployed.health.rollbacks == 3
    assert deployed.program is good and deployed.last_good is None
    registry = machine.obs.registry
    assert registry.counter("app", "syrupd", "rollbacks").value == 3
    assert registry.counter("app", "syrupd", "verifier_rejections").value == 3
    assert len(machine.obs.events.events(kind="verifier_reject")) == 3


def test_a_callers_program_object_is_verified_on_every_load():
    machine = Machine(set_a(), seed=6)
    app = machine.register_app("app", ports=[8080])
    RocksDbServer(machine, app, 8080, 4)
    program = compile_policy(
        "def schedule(pkt):\n"
        "    if pkt_len(pkt) < 8:\n"
        "        return PASS\n"
        "    return load_u32(pkt, 4) % 4\n"
    )
    first = app.deploy_policy(program, Hook.SOCKET_SELECT)
    app.undeploy_policy(Hook.SOCKET_SELECT)
    # the caller still holds the object: move the load past the proven
    # packet length and load the very same Program again
    load = next(insn for insn in program.insns if insn.op == "LDPKT")
    load.a = 64
    with pytest.raises(VerifierError):
        app.deploy_policy(program, Hook.SOCKET_SELECT)
    assert first.state == "undeployed" and machine.syrupd.status() == []
