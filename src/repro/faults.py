"""Deterministic, seeded fault injection across the stack.

The paper argues a buggy policy "can only hurt the application that
deployed it" (§4.3); this module provides the *failures* that claim is
tested against.  A :class:`FaultPlan` is a declarative schedule of
injections — policy runtime faults at a configurable rate, ghOSt-agent
crashes, NIC offload-engine loss, core stalls, socket-backlog
saturation — that a machine arms at construction time
(``Machine(faults=plan)``).

Two properties are load-bearing:

- **Determinism.**  The injector draws from its own
  :class:`repro.sim.rng.RngStreams` space keyed by the *plan's* seed
  (one stream per ``(app, hook)`` for runtime faults), so injections
  never perturb the machine's workload/service streams, and two runs
  with the same machine seed and the same plan are bit-identical —
  metrics snapshot, event trace and all (tests/test_determinism.py).
- **Zero-cost when absent.**  ``Machine(faults=None)`` (the default)
  constructs no injector, wraps no program, and schedules no events:
  figure2/6/8 outputs are bit-identical with and without this module
  imported.

Every injection is observable: a ``fault_injected`` event in the
machine's trace and a ``((root), faults, <kind>)`` counter.  What the
system *does* about an injection — quarantine, rollback, watchdog
restart, offload fallback — lives in :mod:`repro.core.health` and
:mod:`repro.core.syrupd`; see docs/robustness.md.
"""

from repro.core.hooks import ROOT_APP
from repro.ebpf.errors import VmFault
from repro.obs.registry import ZERO_CLOCK
from repro.sim.rng import RngStreams

__all__ = ["FaultInjector", "FaultKind", "FaultPlan", "FaultSpec",
           "FaultyProgram"]


class FaultKind:
    """The injectable failure modes."""

    VMFAULT = "vmfault"                    # policy program runtime fault
    AGENT_CRASH = "agent_crash"            # ghOSt userspace agent dies
    NIC_OFFLOAD_DOWN = "nic_offload_down"  # NIC offload engine unavailable
    NIC_OFFLOAD_RESTORE = "nic_offload_restore"
    CORE_STALL = "core_stall"              # a softirq core stops serving
    SOCKET_SATURATE = "socket_saturate"    # a port's socket backlogs vanish
    SOCKET_RESTORE = "socket_restore"
    # Fleet-scoped kinds (repro.cluster): whole-machine and rack-link
    # failures.  A single-machine FaultInjector ignores them; the fleet's
    # FleetFaultInjector arms them against FleetMachines and the ToR
    # switch (docs/cluster.md, "Failure semantics").
    MACHINE_KILL = "machine_kill"          # a rack server dies wholesale
    MACHINE_RESTORE = "machine_restore"
    LINK_DOWN = "link_down"                # switch<->server link loses carrier
    LINK_RESTORE = "link_restore"

    ALL = (VMFAULT, AGENT_CRASH, NIC_OFFLOAD_DOWN, CORE_STALL,
           SOCKET_SATURATE, MACHINE_KILL, LINK_DOWN)


class FaultSpec:
    """One declared injection (see the FaultPlan builder methods)."""

    __slots__ = ("kind", "app", "hook", "rate", "start_us", "until_us",
                 "at_us", "restore_at_us", "duration_us", "core", "port",
                 "machine")

    def __init__(self, kind, app=None, hook=None, rate=0.0, start_us=0.0,
                 until_us=None, at_us=0.0, restore_at_us=None,
                 duration_us=0.0, core=0, port=0, machine=None):
        self.kind = kind
        self.app = app
        self.hook = hook
        self.rate = rate
        self.start_us = start_us
        self.until_us = until_us
        self.at_us = at_us
        self.restore_at_us = restore_at_us
        self.duration_us = duration_us
        self.core = core
        self.port = port
        self.machine = machine

    def as_dict(self):
        """JSON-safe view (used by event payloads and docs examples)."""
        out = {"kind": self.kind}
        for field in ("app", "hook", "rate", "start_us", "until_us",
                      "at_us", "restore_at_us", "duration_us", "core",
                      "port", "machine"):
            value = getattr(self, field)
            if value not in (None, 0, 0.0) or (
                self.kind == FaultKind.VMFAULT and field == "rate"
            ) or (
                field == "machine" and value is not None
            ):
                out[field] = value
        return out

    def __repr__(self):
        return f"<FaultSpec {self.as_dict()}>"


class FaultPlan:
    """A seeded, declarative schedule of fault injections.

    Builder methods chain::

        plan = (FaultPlan(seed=11)
                .vmfault(rate=0.05, app="rocksdb", hook=Hook.SOCKET_SELECT)
                .agent_crash("search", at_us=50_000.0)
                .nic_offload_down(at_us=20_000.0, restore_at_us=80_000.0))
        machine = Machine(set_a(), seed=1, faults=plan)

    The plan's ``seed`` drives *only* the injector's RNG streams; the
    machine keeps its own seed for workload/service draws, so the same
    plan replayed against different machine seeds injects at the same
    per-invocation probabilities without correlating the two.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.specs = []

    # -- builders ------------------------------------------------------
    def vmfault(self, rate, app=None, hook=None, start_us=0.0,
                until_us=None):
        """Make matching policy programs raise VmFault at ``rate``.

        ``app``/``hook`` of None match any app / any network hook; the
        window ``[start_us, until_us)`` bounds injection in simulated
        time (``until_us=None`` = forever).
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.specs.append(FaultSpec(
            FaultKind.VMFAULT, app=app, hook=hook, rate=rate,
            start_us=start_us, until_us=until_us,
        ))
        return self

    def agent_crash(self, app, at_us):
        """Crash ``app``'s ghOSt agent at ``at_us`` (watchdog recovers)."""
        self.specs.append(FaultSpec(
            FaultKind.AGENT_CRASH, app=app, at_us=at_us,
        ))
        return self

    def nic_offload_down(self, at_us, restore_at_us=None):
        """Fail the NIC offload engine at ``at_us``; optionally restore."""
        self.specs.append(FaultSpec(
            FaultKind.NIC_OFFLOAD_DOWN, at_us=at_us,
            restore_at_us=restore_at_us,
        ))
        return self

    def core_stall(self, core, at_us, duration_us):
        """Stall softirq core ``core`` for ``duration_us`` (queue builds)."""
        self.specs.append(FaultSpec(
            FaultKind.CORE_STALL, core=core, at_us=at_us,
            duration_us=duration_us,
        ))
        return self

    def socket_saturate(self, port, at_us, duration_us):
        """Zero the backlog of every socket on ``port`` for a window."""
        self.specs.append(FaultSpec(
            FaultKind.SOCKET_SATURATE, port=port, at_us=at_us,
            duration_us=duration_us,
        ))
        return self

    def machine_kill(self, machine, at_us, restore_at_us=None):
        """Kill fleet machine ``machine`` wholesale at ``at_us``.

        Fleet-scoped (:class:`repro.cluster.fleet.Fleet`): queued and
        in-service requests orphan; once the ToR switch's failover
        detection fires, they are re-steered to live machines and the
        dead machine is excluded from every candidate set.  Optionally
        restore (reboot) at ``restore_at_us``.  A single-machine
        :class:`FaultInjector` ignores this spec.
        """
        self.specs.append(FaultSpec(
            FaultKind.MACHINE_KILL, machine=machine, at_us=at_us,
            restore_at_us=restore_at_us,
        ))
        return self

    def link_down(self, machine, at_us, duration_us):
        """Drop the switch<->``machine`` rack link for ``duration_us``.

        The machine itself stays up and keeps draining its queue; the
        switch sees carrier loss immediately (no detection delay) and
        steers around it, and responses the machine finishes while the
        link is down are buffered and flushed at restore.  Fleet-scoped,
        like :meth:`machine_kill`.
        """
        self.specs.append(FaultSpec(
            FaultKind.LINK_DOWN, machine=machine, at_us=at_us,
            duration_us=duration_us,
        ))
        return self

    # ------------------------------------------------------------------
    def vmfault_specs_for(self, app, hook):
        """The vmfault specs matching one ``(app, hook)`` deployment."""
        return [
            spec for spec in self.specs
            if spec.kind == FaultKind.VMFAULT
            and spec.app in (None, app)
            and spec.hook in (None, hook)
        ]

    def __len__(self):
        return len(self.specs)

    def __repr__(self):
        return f"<FaultPlan seed={self.seed} specs={len(self.specs)}>"


class FaultyProgram:
    """A LoadedProgram proxy that raises :class:`VmFault` at seeded rates.

    Wraps the program *after* syrupd has attached its metrics, so
    every attribute the rest of the system reads (``cycle_estimate``,
    ``invocations``, ``name``, ``maps``, ...) delegates to the inner
    program via ``__getattr__``.  Only ``run`` is intercepted.  ``clock``
    is anything with ``.now`` (the engine; ``ZERO_CLOCK`` standalone).
    """

    def __init__(self, inner, specs, rng, on_fault=None, clock=None):
        self._inner = inner
        self._specs = list(specs)
        self._rng = rng
        self._on_fault = on_fault  # fn(app_hint) -> None, set by injector
        self._clock = clock if clock is not None else ZERO_CLOCK
        self.faults_raised = 0

    def run(self, packet):
        now = self._clock.now
        for spec in self._specs:
            if now < spec.start_us:
                continue
            if spec.until_us is not None and now >= spec.until_us:
                continue
            if self._rng.random() < spec.rate:
                self.faults_raised += 1
                if self._on_fault is not None:
                    self._on_fault(spec)
                raise VmFault(
                    f"injected runtime fault in {self._inner.name!r}"
                )
        return self._inner.run(packet)

    def __getattr__(self, name):
        return getattr(self.__dict__["_inner"], name)

    def __repr__(self):
        return (
            f"<FaultyProgram {self._inner.name!r} "
            f"faults_raised={self.faults_raised}>"
        )


class FaultInjector:
    """Arms a :class:`FaultPlan` against one machine.

    Constructed by :class:`repro.machine.Machine` when ``faults=`` is
    given; ``arm()`` schedules every timed fault as an engine event and
    ``wrap_program`` is called by syrupd for each network-policy load.
    """

    def __init__(self, machine, plan):
        self.machine = machine
        self.plan = plan
        self.streams = RngStreams(plan.seed)
        self.injected = 0

    # ------------------------------------------------------------------
    def arm(self):
        """Schedule the plan's timed faults on the machine's engine."""
        engine = self.machine.engine
        for spec in self.plan.specs:
            if spec.kind == FaultKind.AGENT_CRASH:
                engine.post_at(spec.at_us, self._inject_agent_crash, spec)
            elif spec.kind == FaultKind.NIC_OFFLOAD_DOWN:
                engine.post_at(spec.at_us, self._inject_offload_down, spec)
                if spec.restore_at_us is not None:
                    engine.post_at(
                        spec.restore_at_us, self._inject_offload_restore,
                        spec,
                    )
            elif spec.kind == FaultKind.CORE_STALL:
                engine.post_at(spec.at_us, self._inject_core_stall, spec)
            elif spec.kind == FaultKind.SOCKET_SATURATE:
                engine.post_at(spec.at_us, self._inject_socket_saturate, spec)
            # VMFAULT is armed per-deployment via wrap_program.  Fleet
            # kinds (MACHINE_KILL, LINK_DOWN) are skipped here: a plan
            # can mix end-host and fleet specs and hand the same object
            # to a Machine and a repro.cluster.fleet.Fleet.
        return self

    def wrap_program(self, loaded, app_name, hook):
        """Wrap a freshly-loaded program if the plan targets it."""
        specs = self.plan.vmfault_specs_for(app_name, hook)
        if not specs:
            return loaded
        rng = self.streams.get(f"vmfault/{app_name}/{hook}")

        def on_fault(spec):
            self._note(FaultKind.VMFAULT, app=app_name, hook=hook,
                       rate=spec.rate)

        return FaultyProgram(loaded, specs, rng, on_fault=on_fault,
                             clock=self.machine.engine)

    # -- timed injections ----------------------------------------------
    def _inject_agent_crash(self, spec):
        self._note(FaultKind.AGENT_CRASH, app=spec.app)
        self.machine.syrupd.inject_agent_crash(spec.app)

    def _inject_offload_down(self, spec):
        nic = self.machine.nic
        if nic.offload_down:
            return
        nic.offload_down = True
        self._note(FaultKind.NIC_OFFLOAD_DOWN)
        self.machine.syrupd.handle_offload_failure()

    def _inject_offload_restore(self, spec):
        nic = self.machine.nic
        if not nic.offload_down:
            return
        nic.offload_down = False
        self._note(FaultKind.NIC_OFFLOAD_RESTORE)
        self.machine.syrupd.handle_offload_restore()

    def _inject_core_stall(self, spec):
        # Elastic machines route the stall through the arbiter: the
        # granted app core is force-revoked (its work migrates) and the
        # owner is backfilled from the free pool or a surplus class
        # (docs/oversubscription.md).  Without an arbiter the stall
        # lands on a softirq core, exactly as before.
        arbiter = getattr(self.machine, "arbiter", None)
        if arbiter is not None:
            record = arbiter.stall(spec.core, spec.duration_us)
            self._note(FaultKind.CORE_STALL, core=record["cid"],
                       duration_us=spec.duration_us, scope="app_core",
                       victim=record["victim"],
                       backfill=record["backfill"],
                       lender=record["lender"])
            return
        servers = self.machine.netstack.softirq
        server = servers[spec.core % len(servers)]
        accepted = server.submit(spec.duration_us, _noop)
        self._note(FaultKind.CORE_STALL, core=spec.core,
                   duration_us=spec.duration_us, accepted=accepted)

    def _inject_socket_saturate(self, spec):
        group = self.machine.netstack.socket_table.group(spec.port)
        if group is None or not len(group):
            self._note(FaultKind.SOCKET_SATURATE, port=spec.port,
                       sockets=0)
            return
        saved = [(socket, socket.backlog) for socket in group.sockets]
        for socket, _backlog in saved:
            socket.backlog = 0
        self._note(FaultKind.SOCKET_SATURATE, port=spec.port,
                   sockets=len(saved), duration_us=spec.duration_us)

        def restore():
            for socket, backlog in saved:
                socket.backlog = backlog
            self._note(FaultKind.SOCKET_RESTORE, port=spec.port)

        self.machine.engine.post(spec.duration_us, restore)

    # ------------------------------------------------------------------
    def _note(self, kind, **fields):
        """Count + trace one injection (app keyed when known)."""
        self.injected += 1
        registry, events = self.machine.obs.registry, self.machine.obs.events
        if registry is not None:
            registry.counter(ROOT_APP, "faults", kind).inc()
        if events is not None:
            events.emit("fault_injected", fault=kind, **fields)

    def __repr__(self):
        return f"<FaultInjector plan={self.plan!r} injected={self.injected}>"


def _noop():
    """The stalled core's work item: burns service time, does nothing."""
