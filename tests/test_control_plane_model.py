"""A generated model of the control plane.

syrupd is the one trusted mediator between applications and the kernel
(PAPER.md §1: per-app isolation, verify before deploy, hot swap).  Every
control-plane bug found so far was one family: an operation that fails
or is undone leaves state behind.  ``CONTROL_PLANE_DIGEST`` pins one
hand-picked sequence; this state machine generates the sequences.

Rules register apps, deploy / redeploy / undeploy network policies
(shipped texts, one the verifier refuses, one the compiler refuses),
deploy / undeploy qdiscs at every layer with owned, foreign and
out-of-range targets, walk shadow candidates through canary to promote
or reject, demote promoted ones, and advance the engine under light
traffic.  After each rule:

- a refused operation changed nothing: the deployment table, the pinned
  maps, the next fd, PROG_ARRAY occupancy, every qdisc and shadow tap,
  and (lit) the registry series outside the ``syrupd`` scope that
  counts the refusal itself;
- no port rule or qdisc serves an app that does not own its queue;
- ``promotions()`` reports the stage the model holds for each record;
- registry counters, and the observation count of every sketch, never
  decrease (lit).

``undeploy_everything`` then checks that removing every deployment
returns the datapath to its post-registration state.  The machine runs
dark (every telemetry tier ``None``) and lit (``metrics=True``).
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import Hook, Machine, set_b
from repro.apps.rocksdb import RocksDbServer
from repro.core.loader import PolicyValidationError
from repro.core.syrupd import IsolationError
from repro.ebpf import CompileError, VerifierError
from repro.policies.builtin import (
    HASH_BY_FLOW,
    ROUND_ROBIN,
    SCAN_AVOID,
    TOKEN_BASED,
)
from repro.qdisc.discipline import LAYERS, qdisc_hook
from repro.qdisc.policies import FIFO_RANK, SRPT_BY_SIZE, SRPT_TIERED
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_SCAN_995_005

PORTS = {"a": 8080, "b": 9090}
CONSTANTS = {"NUM_THREADS": 2, "NUM_EXECUTORS": 2, "SHORT_US": 100}

#: The verifier refuses this one: a packet load with no length guard.
LEAKY = (
    'leak_map = syr_map("leak_map", 64)\n\n'
    "def schedule(pkt):\n"
    "    return load_u32(pkt, 0)\n"
)
#: The compiler refuses an import, at ``deploy_shadow``'s check too.
IMPORTS = "import os\n"
POLICIES = (ROUND_ROBIN, HASH_BY_FLOW, SCAN_AVOID, TOKEN_BASED, LEAKY,
            IMPORTS)
RANKS = (SRPT_BY_SIZE, FIFO_RANK, SRPT_TIERED, LEAKY, IMPORTS)
#: XDP_DRV is refused on this NIC (no zero-copy driver mode).
HOOKS = (Hook.SOCKET_SELECT, Hook.CPU_REDIRECT, Hook.XDP_DRV)
SHADOW_HOOKS = HOOKS + (qdisc_hook("socket"), qdisc_hook("nic_rx"))
REFUSALS = (IsolationError, CompileError, VerifierError,
            PolicyValidationError, ValueError, PermissionError)


class _Fifo:
    def schedule(self, status):
        return [(t, c.cid) for t, c in zip(status.runnable,
                                            status.idle_cores())]


class ControlPlane(RuleBasedStateMachine):
    """One ghOSt machine, up to two apps; ``lit`` is set per subclass."""

    lit = False

    def __init__(self):
        super().__init__()
        self.machine = Machine(set_b(4), seed=11, scheduler="ghost",
                               metrics=self.lit)
        self.syrupd = self.machine.syrupd
        self.apps = {}
        self.servers = {}
        self.records = []
        self.stages = []    # per record, the stage the model expects
        self.seen = {}      # counter / sketch key -> last count read (lit)

    # -- the state a refused operation must leave alone ----------------
    def _sites(self):
        netstack, nic = self.machine.netstack, self.machine.nic
        return [site for site in (
            netstack.socket_select_hook, netstack.cpu_redirect_hook,
            netstack.xdp_hook, nic.classifier) if site is not None]

    def _sockets(self):
        return [s for server in self.servers.values() for s in server.sockets]

    def _state(self):
        syrupd = self.syrupd
        state = {
            "deployed": [(d.fd, d.app_name, d.hook, d.state, id(d.program),
                          [id(q) for q in d.qdiscs])
                         for d in syrupd.deployed],
            "maps": syrupd.registry.paths(),
            "next_fd": syrupd._next_fd,
            "slots": {site.hook: [(i, id(p)) for i, p in
                                  site.prog_array.items()]
                      for site in self._sites()},
            "taps": {site.hook: [id(a.shadow) for a in
                                 site._port_rules.values()]
                     for site in self._sites()},
            "socket_qdiscs": [(id(s.qdisc), id(getattr(s.qdisc, "shadow",
                                                        None)))
                              for s in self._sockets()],
            "nic_qdiscs": {i: id(q) for i, q in
                           self.machine.nic.rx_qdiscs.items()},
            "agent_qdiscs": [id(d.agent.runqueue_qdisc)
                             for d in syrupd.deployed
                             if d.agent is not None],
        }
        registry = self.machine.obs.registry
        if registry is not None:
            state["series"] = [key for key in registry.series()
                               if key[1] != "syrupd"]
        return state

    def _attempt(self, operation, refused):
        """Run ``operation``; a refusal (``refused`` says whether one is
        expected, None when either is fine) must change nothing."""
        before = self._state()
        try:
            result = operation()
        except REFUSALS:
            assert refused is not False, "an allowed operation was refused"
            assert self._state() == before
            return None
        assert refused is not True, "a refused operation went through"
        return result

    # -- rules ----------------------------------------------------------
    @initialize()
    def register_first(self):
        self.register("a")

    @rule(name=st.sampled_from(sorted(PORTS)))
    def register(self, name):
        if name in self.apps:
            # a second registration of a taken name or port is refused
            self._attempt(lambda: self.machine.register_app(
                name + "2", ports=[PORTS[name]]), refused=True)
            return
        app = self.machine.register_app(name, ports=[PORTS[name]])
        server = RocksDbServer(self.machine, app, PORTS[name], 2,
                               mark_scans=True, mark_sizes=True)
        gen = OpenLoopGenerator(self.machine, PORTS[name], 10_000,
                                GET_SCAN_995_005, duration_us=1e9)
        server.response_sink = gen.deliver_response
        gen.start()
        self.apps[name], self.servers[name] = app, server

    @precondition(lambda self: self.apps)
    @rule(data=st.data(), hook=st.sampled_from(HOOKS),
          text=st.sampled_from(POLICIES), foreign=st.booleans())
    def deploy(self, data, hook, text, foreign):
        name = data.draw(st.sampled_from(sorted(self.apps)))
        app = self.apps[name]
        if self.syrupd._active_deployment(name, hook) is not None:
            return
        ports = [9999 if foreign else PORTS[name]]
        refused = foreign or text in (LEAKY, IMPORTS) or hook == Hook.XDP_DRV
        self._attempt(lambda: app.deploy_policy(
            text, hook, constants=CONSTANTS, ports=ports), refused)

    def _active(self, hooks):
        return [d for d in self.syrupd.deployed
                if d.state == "active" and d.hook in hooks]

    @precondition(lambda self: self._active(Hook.NETWORK))
    @rule(data=st.data(), text=st.sampled_from(POLICIES),
          stale=st.booleans())
    def redeploy(self, data, text, stale):
        deployed = data.draw(st.sampled_from(self._active(Hook.NETWORK)))
        # a stale redeploy names a hook the app holds no deployment at
        hook = Hook.XDP_DRV if stale else deployed.hook
        self._attempt(lambda: self.apps[deployed.app_name].redeploy_policy(
            text, hook, constants=CONSTANTS), stale or text in (LEAKY, IMPORTS))

    @precondition(lambda self: self.syrupd.deployed)
    @rule(data=st.data())
    def undeploy(self, data):
        deployed = data.draw(st.sampled_from(self.syrupd.deployed))
        self.syrupd.undeploy(self.apps[deployed.app_name], deployed.hook)

    @precondition(lambda self: self.apps)
    @rule(data=st.data())
    def deploy_thread_policy(self, data):
        name = data.draw(st.sampled_from(sorted(self.apps)))
        if self.syrupd._active_deployment(name, Hook.THREAD_SCHED) is None:
            self.apps[name].deploy_policy(_Fifo(), Hook.THREAD_SCHED)

    @precondition(lambda self: self.apps)
    @rule(data=st.data(), layer=st.sampled_from(LAYERS),
          text=st.sampled_from(RANKS),
          aim=st.sampled_from(("default", "owned", "foreign", "range")))
    def deploy_qdisc(self, data, layer, text, aim):
        name = data.draw(st.sampled_from(sorted(self.apps)))
        if self.syrupd._active_deployment(name, qdisc_hook(layer)):
            return
        targets, refused = None, text in (LEAKY, IMPORTS)
        if layer == "socket" and aim in ("owned", "foreign"):
            other = [n for n in self.servers if n != name]
            if aim == "foreign" and other:
                targets, refused = self.servers[other[0]].sockets[:1], True
            else:
                targets = self.servers[name].sockets[:1]
        elif layer == "nic_rx" and aim != "default":
            out = self.machine.nic.spec.num_queues if aim == "range" else 0
            targets, refused = [out], refused or aim == "range"
        if layer == "runqueue":
            sched = self.syrupd._active_deployment(name, Hook.THREAD_SCHED)
            refused = refused or sched is None or sched.agent is None
        self._attempt(lambda: self.apps[name].deploy_qdisc(
            text, layer, constants=CONSTANTS, targets=targets), refused)

    def _shadowable(self):
        """Active programs (network or socket / NIC qdisc) with no
        candidate in flight: one candidate at a time per deployment."""
        busy = [r.deployed for r in self.records
                if r.stage in ("shadow", "canary")]
        return [d for d in self._active(SHADOW_HOOKS)
                if d.program is not None and d not in busy]

    @precondition(lambda self: self._shadowable())
    @rule(data=st.data(), text=st.sampled_from(POLICIES + RANKS))
    def shadow(self, data, text):
        deployed = data.draw(st.sampled_from(self._shadowable()))
        layer = deployed.qdiscs[0].layer if deployed.qdiscs else None
        where = ({"layer": layer} if layer is not None
                 else {"hook": deployed.hook})
        # a rank text at a hook (or a policy at a layer) may compile or
        # not: either outcome is fine, but a refusal changes nothing
        record = self._attempt(
            lambda: self.apps[deployed.app_name].deploy_shadow(
                text, constants=CONSTANTS, **where),
            text in (LEAKY, IMPORTS) or None)
        if record is not None:
            self.stages.append("shadow")
            self.records.append(record)

    def _live(self, stage):
        return [r for r in self.records if r.stage == stage
                and r.deployed in self.syrupd.deployed
                and r.deployed.state == "active"]

    @precondition(lambda self: self._live("shadow"))
    @rule(data=st.data())
    def advance_shadow(self, data):
        record = data.draw(st.sampled_from(self._live("shadow")))
        self.syrupd.advance_shadow(record, "canary")
        self.stages[self.records.index(record)] = "canary"
        # a second advance from canary is refused
        self._attempt(lambda: self.syrupd.advance_shadow(record, "canary"),
                      refused=True)

    @precondition(lambda self: self._live("canary"))
    @rule(data=st.data(), promote=st.booleans())
    def finish_canary(self, data, promote):
        record = data.draw(st.sampled_from(self._live("canary")))
        if promote:
            self.syrupd.promote_shadow(record)
        else:
            self.syrupd.reject_shadow(record, "agreement")
        self.stages[self.records.index(record)] = (
            "active" if promote else "rejected")

    @precondition(lambda self: "active" in self.stages)
    @rule(data=st.data())
    def demote(self, data):
        promoted = [r for i, r in enumerate(self.records)
                    if self.stages[i] == "active"]
        record = data.draw(st.sampled_from(promoted))
        self.syrupd.demote_shadow(record, "probation")
        self.stages[self.records.index(record)] = "demoted"

    @rule(us=st.sampled_from((50.0, 200.0, 400.0)))
    def advance_engine(self, us):
        self.machine.run(until=self.machine.now + us)

    @precondition(lambda self: len(self.syrupd.deployed) > 2)
    @rule()
    def undeploy_everything(self):
        for name, app in self.apps.items():
            for layer in LAYERS:
                app.undeploy_qdisc(layer)
            for hook in Hook.ALL:
                app.undeploy_policy(hook)
        assert self.syrupd.deployed == []
        for site in self._sites():
            assert len(site.prog_array) == 0
            assert site._port_rules == {}
        assert all(s.qdisc is None for s in self._sockets())
        assert self.machine.nic.rx_qdiscs == {}

    # -- invariants -----------------------------------------------------
    @invariant()
    def isolation(self):
        owner = self.syrupd._port_owner
        for site in self._sites():
            for port, attachment in site._port_rules.items():
                assert owner.get(port) == attachment.app_name
        for socket in self._sockets():
            if socket.qdisc is not None:
                assert socket.qdisc.app_name == socket.app
        for qdisc in self.machine.nic.rx_qdiscs.values():
            assert all(owner.get(port) == qdisc.app_name
                       for port in qdisc.ports)

    @invariant()
    def promotions_agree_with_the_model(self):
        assert [row["stage"] for row in self.syrupd.promotions()] == \
            self.stages

    @invariant()
    def counters_never_decrease(self):
        registry = self.machine.obs.registry
        if registry is None:
            return
        for row in registry.snapshot():
            if row["kind"] != "gauge":
                key = (row["app"], row["scope"], row["metric"])
                value = row["value" if row["kind"] == "counter" else "count"]
                assert value >= self.seen.get(key, 0), key
                self.seen[key] = value


class LitControlPlane(ControlPlane):
    lit = True


#: Fixed examples for tier-1; ``pytest --hypothesis-profile=deep`` (see
#: conftest.py) searches further and from fresh seeds.
TIER1 = settings(derandomize=True, max_examples=100, stateful_step_count=50,
                 deadline=None, database=None,
                 suppress_health_check=list(HealthCheck))


@pytest.mark.parametrize("model", [ControlPlane, LitControlPlane],
                         ids=["dark", "lit"])
def test_control_plane_model(model):
    deep = settings.get_current_profile_name() == "deep"
    run_state_machine_as_test(
        model, settings=settings.default if deep else TIER1)
