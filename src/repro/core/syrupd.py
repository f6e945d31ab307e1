"""syrupd: the system-wide Syrup daemon (paper §3.5, §4.3).

Applications never load programs into hooks themselves; they send a request
to syrupd (in the real system over a Unix domain socket — here, a method
call standing in for that RPC).  The daemon:

1. tracks which UDP ports belong to which application and rejects
   cross-application port claims,
2. compiles the policy file to bytecode and runs the verifier (once per
   distinct text and constants: :func:`repro.ebpf.program.image_of`),
3. only then — a rejected text leaves no state behind — creates/pins the
   policy's declared Maps under the owning app's path (NIC-resident for
   offloaded programs) and binds a fresh program instance to them,
4. installs the program behind the hook's root port-matching dispatcher so
   it only ever handles the owning app's inputs, and
5. for the Thread Scheduler hook, launches a ghOSt agent restricted to the
   app's enclave.

Policy lifecycle (docs/robustness.md): every deployment carries a
:class:`repro.core.health.DeploymentHealth` record and a ``state``
(``active`` / ``quarantined`` / ``fallback`` / ``undeployed``).  Runtime
faults escaping a program are contained by the hook site and reported
here; the :class:`repro.core.health.LifecycleManager` may **quarantine**
a repeatedly-faulting policy (uninstall → kernel-default behaviour),
**roll back** a faulting :meth:`redeploy` to the last-known-good
program, **restart** a crashed ghOSt agent with bounded backoff, and
migrate XDP_OFFLOAD deployments to the XDP_SKB host path when the NIC's
offload engine fails (:meth:`handle_offload_failure`).

Each control-plane step has one body: :meth:`Syrupd._register` for a
deploy on every layer, :meth:`Syrupd._swap` for a program swap, and
:meth:`Syrupd._transition` — the ``syrupd``-scope counter, then the
event — for every recorded step (machine ``metrics=True``).
``status()`` / ``health()`` rows carry the live per-``(app, hook)``
values that ``syrupctl stats`` / ``syrupctl health`` render.  See
docs/observability.md.
"""

from functools import partial

from repro.core.executors import ExecutorMap
from repro.core.health import LifecycleManager
from repro.core.hooks import ROOT_APP, Hook, HookSite
from repro.core.loader import PolicyValidationError, check_policy_source
from repro.core.maps import HOST, OFFLOAD, MapRegistry
from repro.core.promote import (
    CanaryController,
    PromotionRecord,
    ShadowTap,
    hook_label,
    rank_label,
)
from repro.ebpf.compiler import compile_policy
from repro.ebpf.errors import CompileError, VerifierError
from repro.ebpf.program import LoadedProgram, image_of
from repro.ghost.agent import GhostAgent
from repro.ghost.enclave import Enclave
from repro.ghost.sched import GhostScheduler
from repro.obs import DISABLED
from repro.qdisc.discipline import (
    LAYER_NIC_RX,
    LAYER_RUNQUEUE,
    LAYER_SOCKET,
    Qdisc,
    compile_rank,
    qdisc_hook,
)

__all__ = ["DeployedPolicy", "IsolationError", "Syrupd"]

#: Metric groups the registry resolves per deployment (None when dark).
PROGRAM_COUNTERS = ("invocations", "insns_interp", "cycles_interp",
                    "jit_runs")
AGENT_COUNTERS = ("messages", "preemptions", "commits", "failed_commits",
                  "policy_errors")
QDISC_COUNTERS = ("enqueues", "dequeues", "sched_drops", "overflow_drops",
                  "evictions", "runtime_faults")


class IsolationError(PermissionError):
    """A request violated Syrup's multi-tenancy guarantees."""


class DeployedPolicy:
    """Handle returned by deploy_policy (the paper's prog_fd).

    ``fd`` values are allocated by the owning daemon (one counter per
    machine), so concurrently-built machines get independent,
    deterministic fd sequences.
    """

    def __init__(self, fd, app_name, hook, program=None, agent=None,
                 ports=None, executors=None):
        self.fd = fd
        self.app_name = app_name
        self.hook = hook
        self.program = program    # LoadedProgram (network hooks)
        self.agent = agent        # GhostAgent (thread hook)
        self.ports = list(ports) if ports is not None else []
        self.executors = executors
        self.qdiscs = []          # Qdisc instances (qdisc:<layer> hooks)
        # Lifecycle (docs/robustness.md)
        self.state = "active"     # active | quarantined | fallback | undeployed
        self.last_good = None     # previous program kept across redeploy()
        self.health = None        # DeploymentHealth, set by the lifecycle mgr
        self.fallback_from = None # original hook when offload fell back
        self.fallback_scheduler = None  # CFS instance after agent fallback

    def __repr__(self):
        return (
            f"<DeployedPolicy fd={self.fd} app={self.app_name} "
            f"hook={self.hook} state={self.state}>"
        )


class Syrupd:
    def __init__(self, machine, health=None):
        self.machine = machine
        self.obs = getattr(machine, "obs", None) or DISABLED
        self.registry = MapRegistry(
            machine.costs, machine.config.nic, obs=self.obs
        )
        self.apps = {}
        self._port_owner = {}
        self._sites = {}
        self.deployed = []
        #: PromotionRecords, in deploy_shadow order (``syrupctl promote``).
        self._promotions = []
        self._next_fd = 3
        # Self-healing lifecycle: health is a HealthPolicy (or None for
        # the defaults).  Purely event-driven — with no faults injected
        # it schedules nothing and results stay bit-identical.
        self.lifecycle = LifecycleManager(self, policy=health)

    def _transition(self, kind, app, hook, counter=None, **fields):
        """Record one control-plane step: bump ``counter`` under the
        app's ``syrupd`` scope (when the step has one), then emit the
        ``kind`` event.  Every recorded step comes through here."""
        if counter is not None:
            self.obs.registry.counter(app, "syrupd", counter).inc()
        self.obs.events.emit(kind, app=app, hook=hook, **fields)

    def _deny(self, detail, app=None):
        """Count (under the root app) + trace a denial, then raise."""
        self.obs.registry.counter(
            ROOT_APP, "syrupd", "isolation_denials"
        ).inc()
        self.obs.events.emit("isolation_denial", app=app, detail=detail)
        raise IsolationError(detail)

    # ------------------------------------------------------------------
    # App registration
    # ------------------------------------------------------------------
    def register_app(self, name, ports):
        from repro.core.api import App  # local import: api builds on syrupd

        if name in self.apps:
            raise ValueError(f"app {name!r} already registered")
        for port in ports:
            owner = self._port_owner.get(port)
            if owner is not None:
                self._deny(
                    f"port {port} already owned by app {owner!r}", app=name
                )
        for port in ports:
            self._port_owner[port] = name
        app = App(self, name, ports)
        self.apps[name] = app
        self._transition("app_registered", name, None, ports=list(ports))
        return app

    def _check_ports(self, app, ports):
        for port in ports:
            if self._port_owner.get(port) != app.name:
                self._deny(
                    f"app {app.name!r} does not own port {port}",
                    app=app.name,
                )

    # ------------------------------------------------------------------
    # Hook sites
    # ------------------------------------------------------------------
    def _site(self, hook):
        site = self._sites.get(hook)
        if site is not None:
            return site
        site = HookSite(hook, self.machine.costs, obs=self.obs,
                        probe=self.obs.probe)
        site.fault_listener = self._on_runtime_fault
        machine = self.machine
        if hook == Hook.SOCKET_SELECT:
            machine.netstack.socket_select_hook = site
        elif hook == Hook.CPU_REDIRECT:
            machine.netstack.cpu_redirect_hook = site
        elif hook in (Hook.XDP_SKB, Hook.XDP_DRV):
            if hook == Hook.XDP_DRV and not machine.config.nic.zero_copy:
                raise ValueError(
                    f"NIC {machine.config.nic.model!r} has no native "
                    "(driver) XDP support; use xdp_skb"
                )
            existing = machine.netstack.xdp_hook
            if existing is not None and existing.hook != hook:
                raise ValueError(
                    f"XDP hook already provisioned in {existing.hook} mode"
                )
            machine.netstack.xdp_hook = site
        elif hook == Hook.XDP_OFFLOAD:
            machine.nic.attach_classifier(site)
        else:
            raise ValueError(f"unknown network hook {hook!r}")
        self._sites[hook] = site
        return site

    # ------------------------------------------------------------------
    # Deployment (syr_deploy_policy)
    # ------------------------------------------------------------------
    def deploy_policy(self, app, policy, hook, constants=None, ports=None):
        """Deploy ``policy`` for ``app`` at ``hook``.

        ``policy`` is policy source text / a Python function in the safe
        subset (network hooks), or a thread-policy object with a
        ``schedule(status)`` method (the Thread Scheduler hook).

        ``hook`` may be a list/tuple of hooks (paper §3.1: syr_deploy_policy
        takes "one or more target deployment hooks"); each target gets its
        own program instance, all sharing the policy's declared maps.
        """
        if isinstance(hook, (list, tuple)):
            return [
                self.deploy_policy(app, policy, one, constants=constants,
                                   ports=ports)
                for one in hook
            ]
        if hook not in Hook.ALL:
            raise ValueError(f"unknown hook {hook!r}")
        ports = list(ports) if ports is not None else list(app.ports)
        self._check_ports(app, ports)
        if hook == Hook.THREAD_SCHED:
            return self._deploy_thread_policy(app, policy)
        loaded = self._load(app, policy, constants, hook)
        executors = app.executor_map(hook)
        self._prepopulate_executors(hook, executors)
        attachment = self._site(hook).install(
            app.name, ports, loaded, executors
        )
        deployed = self._register(
            app, hook, {"ports": ports, "name": loaded.name}, program=loaded,
            ports=ports, executors=executors,
        )
        # Decision spans (repro.obs.spans) link each policy invocation to
        # the deployed fd, so the attachment learns it post-allocation.
        attachment.fd = deployed.fd
        return deployed

    def _load(self, app, policy, constants, hook, layer=None, shadow=False):
        """Verified image → create/pin maps → bind → metrics → fault plan,
        for every deploy entry point.  The image comes first, so a
        CompileError/VerifierError is counted and raised before any map or
        metric exists.  ``hook`` is a network hook, or ``qdisc_hook(layer)``
        given with its ``layer`` (a rank function: ``compile_rank``, its own
        RNG stream, host maps).  ``shadow`` candidates get their own scope
        and stream, so their metrics, injected faults and random draws never
        mix with the active deployment's.
        """
        if layer is None:
            compiler, stream = compile_policy, f"policy/{app.name}"
            placement = OFFLOAD if hook == Hook.XDP_OFFLOAD else HOST
        else:
            compiler, stream = compile_rank, f"qdisc/{app.name}/{layer}"
            placement = HOST
        scope = hook
        if shadow:
            scope, stream = f"shadow:{hook}", f"shadow/{app.name}/{hook}"
        try:
            image = image_of(policy, compiler, constants)
        except (CompileError, VerifierError) as exc:
            self._transition(
                "verifier_reject", app.name, scope, "verifier_rejections",
                error=type(exc).__name__, detail=str(exc),
            )
            raise
        program = image.program
        maps = {}
        for map_name, size in zip(program.map_names, program.map_sizes):
            maps[map_name] = self.registry.create(
                app.name, map_name, size=size, placement=placement
            ).bpf_map
        loaded = LoadedProgram(image, maps, self.machine.streams.get(stream))
        # Per-program counters for the VM/JIT dispatch path (None when
        # the machine runs dark).
        reg = self.obs.registry
        metrics = reg.counters(app.name, scope, PROGRAM_COUNTERS)
        if metrics is not None:
            loaded.metrics = metrics
            reg.gauge(app.name, scope, "prog_n_insns").set(program.n_insns)
            reg.gauge(app.name, scope, "jit_code_lines").set(
                image.jit.jit_n_lines)
        # Fault plan (Machine(faults=...)): wrap the program *after*
        # metrics attachment so the proxy delegates everything.
        injector = getattr(self.machine, "faults", None)
        if injector is not None:
            loaded = injector.wrap_program(loaded, app.name, scope)
        return loaded

    def _register(self, app, hook, fields, **handles):
        """Allocate the fd, attach a health record, enter the deployment
        table and record the ``deploy`` transition (every layer)."""
        fd = self._next_fd
        self._next_fd += 1
        deployed = DeployedPolicy(fd, app.name, hook, **handles)
        self.lifecycle.track(deployed)
        self.deployed.append(deployed)
        self._transition("deploy", app.name, hook, "deploys", fd=fd, **fields)
        return deployed

    def _prepopulate_executors(self, hook, executors):
        """Hardware executors are allocated by syrupd, not the app (§4.4)."""
        if len(executors):
            return
        if hook == Hook.CPU_REDIRECT:
            executors.populate(range(self.machine.config.num_softirq_cores))
        elif hook == Hook.XDP_OFFLOAD:
            executors.populate(range(self.machine.config.nic.num_queues))

    def _deploy_thread_policy(self, app, policy):
        scheduler = self.machine.scheduler
        # Elastic machines (repro.kernel.arbiter) front a facade; the
        # app's own scheduling class is what the agent drives.
        resolve = getattr(scheduler, "class_for_app", None)
        if resolve is not None:
            scheduler = resolve(app.name)
        if not isinstance(scheduler, GhostScheduler):
            raise ValueError(
                "Thread Scheduler hook requires the app's threads to run "
                "under the ghOSt scheduling class (Machine("
                "scheduler='ghost'), or an elastic ghost class)"
            )
        if not hasattr(policy, "schedule"):
            raise TypeError(
                "thread policies must expose schedule(status) -> placements"
            )
        enclave = Enclave(app.name)
        for thread in app.threads:
            enclave.register(thread)
        app.enclave = enclave
        metrics = self.obs.registry.counters(
            app.name, Hook.THREAD_SCHED, AGENT_COUNTERS
        )
        agent = GhostAgent(
            self.machine.engine, scheduler, enclave, policy,
            self.machine.costs, metrics=metrics, events=self.obs.events,
        )
        return self._register(
            app, Hook.THREAD_SCHED, {"policy": type(policy).__name__},
            agent=agent,
        )

    # ------------------------------------------------------------------
    # Queueing disciplines (syr_deploy_qdisc; repro.qdisc)
    # ------------------------------------------------------------------
    def deploy_qdisc(self, app, policy, layer, backend="pifo", constants=None,
                     ports=None, targets=None, backend_kwargs=None):
        """Deploy a rank function as a queueing discipline at ``layer``.

        ``policy`` is rank-function source (``def rank(pkt):``) in the
        same safe subset as matching functions; it travels the identical
        compile → verify → JIT → map-pinning path.  ``layer`` is one of
        :data:`repro.qdisc.discipline.LAYERS`:

        - ``"socket"`` — attach to the app's registered Socket Select
          executors (or an explicit ``targets`` list of sockets),
        - ``"nic_rx"`` — attach to NIC RX queues (``targets``: queue
          indices; default all) with port-based isolation, so foreign
          apps' packets on a shared ring stay FIFO,
        - ``"runqueue"`` — order the app's ghOSt runnable snapshot
          (requires an active Thread Scheduler deployment).

        Returns a :class:`DeployedPolicy` whose ``qdiscs`` lists the
        per-queue discipline instances; the deployment is tracked by the
        lifecycle manager, so a repeatedly-faulting rank function is
        quarantined (every queue reverts to FIFO and keeps draining).
        """
        hook = qdisc_hook(layer)
        ports = list(ports) if ports is not None else list(app.ports)
        if layer != LAYER_RUNQUEUE:
            self._check_ports(app, ports)
        # Every queue is resolved and its owner checked before the image
        # and maps exist: a refused deploy leaves no state behind.
        queues = self._qdisc_queues(app, layer, targets)
        if not queues:
            raise ValueError(
                f"no attachable queues for qdisc layer {layer!r} "
                f"(app {app.name!r}): register executors first"
            )
        loaded = self._load(app, policy, constants, hook, layer)
        reg = self.obs.registry
        metrics = reg.counters(app.name, hook, QDISC_COUNTERS)
        if metrics is not None:
            metrics["rank"] = reg.histogram(app.name, hook, "rank")
        qdiscs = []
        for attach, detach in queues:
            qdisc = Qdisc(
                app.name, layer, backend=backend, program=loaded,
                ports=ports if layer == LAYER_NIC_RX else None,
                backend_kwargs=backend_kwargs,
            )
            attach(qdisc)
            qdisc._detach = detach
            qdisc.metrics = metrics
            if metrics is not None:
                qdisc.depth_gauge = reg.gauge(
                    app.name, hook, f"depth:{qdisc.target}"
                )
            qdiscs.append(qdisc)
        deployed = self._register(
            app, hook, {"layer": layer, "backend": backend,
                        "queues": len(qdiscs), "name": loaded.name},
            program=loaded, ports=ports,
        )
        deployed.qdiscs = qdiscs
        for qdisc in qdiscs:
            qdisc.fault_listener = partial(self._on_qdisc_fault, deployed)
        return deployed

    def _qdisc_queues(self, app, layer, targets):
        """``(attach, detach)`` per queue of ``layer`` that ``app`` may
        order: its sockets, NIC RX queues, or its ghOSt enclave."""
        if layer == LAYER_SOCKET:
            if targets is None:
                targets = app.executor_map(Hook.SOCKET_SELECT).values()
            queues = []
            for socket in targets:
                if socket.app not in (None, app.name):
                    self._deny(
                        f"socket {socket.sid} belongs to app {socket.app!r}",
                        app=app.name,
                    )
                queues.append((socket.set_qdisc, socket.clear_qdisc))
            return queues
        if layer == LAYER_NIC_RX:
            nic = self.machine.nic
            indices = range(nic.spec.num_queues)
            queues = []
            for index in indices if targets is None else targets:
                if index not in indices:
                    raise ValueError(
                        f"RX queue {index} out of range for "
                        f"{nic.spec.num_queues}-queue NIC"
                    )
                queues.append((partial(nic.attach_qdisc, index),
                               partial(nic.detach_qdisc, index)))
            return queues
        sched = self._active_deployment(app.name, Hook.THREAD_SCHED)
        if sched is None or sched.agent is None:
            raise ValueError(
                f"qdisc layer 'runqueue' requires app {app.name!r} to have "
                "an active Thread Scheduler deployment (ghOSt agent)"
            )
        agent = sched.agent

        def attach(qdisc):
            qdisc.target = f"enclave:{app.name}"
            agent.runqueue_qdisc = qdisc

        def detach():
            agent.runqueue_qdisc = None

        return [(attach, detach)]

    def _on_qdisc_fault(self, deployed, qdisc, exc):
        """A rank function faulted (already contained by the Qdisc: the
        element was enqueued FIFO).  Route into the lifecycle, which may
        quarantine the deployment — reverting every queue to pure FIFO."""
        self._transition(
            "qdisc_fault", deployed.app_name, deployed.hook, fd=deployed.fd,
            target=qdisc.target, error=type(exc).__name__, detail=str(exc),
        )
        self.lifecycle.note_runtime_fault(deployed, exc)

    def qdiscs(self):
        """One row per installed discipline (``syrupctl qdisc``)."""
        rows = []
        for deployed in self.deployed:
            for qdisc in deployed.qdiscs:
                row = qdisc.snapshot()
                row["fd"] = deployed.fd
                row["deployment_state"] = deployed.state
                rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # Lifecycle: undeploy / redeploy / rollback / quarantine
    # ------------------------------------------------------------------
    def _lifecycle_event(self, action, deployed, counter, reason, **fields):
        """One schema for quarantine, rollback and every promotion stage
        (kind ``lifecycle``), so ``syrupctl health`` / ``promote`` render
        one shape: ``action``, ``reason`` and the deployment's
        app/hook/fd/state."""
        self._transition(
            "lifecycle", deployed.app_name, deployed.hook, counter,
            action=action, fd=deployed.fd, state=deployed.state,
            reason=reason, **fields,
        )

    def _swap(self, deployed, program, last_good):
        """Put ``program`` behind ``deployed`` wherever it runs — its
        hook site's attachments or its queues — keeping ``last_good``
        (redeploy, rollback and promotion)."""
        site = self._sites.get(deployed.hook)
        if site is not None:
            site.replace(deployed.app_name, program)
        for qdisc in deployed.qdiscs:
            qdisc.program = program
        deployed.last_good = last_good
        deployed.program = program

    def _active_deployment(self, app_name, hook):
        for deployed in self.deployed:
            if (deployed.app_name == app_name and deployed.hook == hook
                    and deployed.state == "active"):
                return deployed
        return None

    def undeploy(self, app, hook):
        """Remove ``app``'s deployment(s) at ``hook`` (syr_undeploy).

        Uninstalls the site's port rules, detaches any ghOSt agent, and
        removes the entries from the deployment table so ``status()``
        stops reporting them.
        """
        site = self._sites.get(hook)
        victims = [d for d in self.deployed
                   if d.app_name == app.name and d.hook == hook]
        for deployed in victims:
            if site is not None and deployed.state == "active":
                ports = set(deployed.ports) | set(app.ports)
                site.uninstall(app.name, ports)
            agent = deployed.agent
            if agent is not None and agent.scheduler.agent is agent:
                agent.scheduler.agent = None
            for qdisc in deployed.qdiscs:
                # Detach from the queue; buffered elements drain (socket
                # qdiscs spill into the FIFO backlog, NIC qdiscs drain
                # via their already-scheduled IRQs) — never stranded.
                qdisc._detach()
            deployed.state = "undeployed"
            self.deployed.remove(deployed)
            self._transition(
                "undeploy", app.name, hook, "undeploys", fd=deployed.fd
            )
        return len(victims)

    def redeploy(self, app, policy, hook, constants=None, ports=None):
        """Hot-swap the program behind an active network deployment.

        The previous binding is kept as ``last_good``: if the
        replacement fails verification nothing is swapped or created
        (the rollback is trivially the still-installed program), and if
        it raises a runtime fault once live the lifecycle manager swaps
        the old binding back (docs/robustness.md).  Every port of the
        deployment is swapped; ``ports``, if given, must be that set.
        """
        if hook == Hook.THREAD_SCHED or hook not in Hook.ALL:
            raise ValueError(
                f"redeploy targets network hooks, got {hook!r}"
            )
        deployed = self._active_deployment(app.name, hook)
        if deployed is None:
            raise ValueError(
                f"app {app.name!r} has no active deployment at {hook}"
            )
        if ports is not None:
            self._check_ports(app, list(ports))
            if set(ports) != set(deployed.ports):
                raise ValueError(
                    f"redeploy swaps every port of app {app.name!r} at "
                    f"{hook}: ports {sorted(ports)} are not the active "
                    f"deployment's {sorted(deployed.ports)}"
                )
        try:
            loaded = self._load(app, policy, constants, hook)
        except (CompileError, VerifierError) as exc:
            deployed.health.rollbacks += 1
            self._lifecycle_event(
                "rollback", deployed, "rollbacks", "verify_failed",
                error=type(exc).__name__,
            )
            raise
        self._swap(deployed, loaded, deployed.program)
        self._transition(
            "redeploy", app.name, hook, "redeploys", fd=deployed.fd,
            name=loaded.name,
        )
        return deployed

    def rollback(self, deployed, reason):
        """Swap ``last_good`` back in after a bad redeploy/promotion."""
        if deployed.last_good is None:
            raise ValueError(f"{deployed!r} has no last-known-good program")
        self._swap(deployed, deployed.last_good, None)
        deployed.health.rollbacks += 1
        self._lifecycle_event("rollback", deployed, "rollbacks", reason)
        return deployed

    def quarantine(self, deployed, reason):
        """Uninstall a sick policy; its traffic reverts to kernel defaults.

        The deployment stays in the table (state ``quarantined``) so
        ``status()`` / ``syrupctl health`` show what happened and why.
        """
        site = self._sites.get(deployed.hook)
        if site is not None:
            site.uninstall(deployed.app_name, deployed.ports)
        for qdisc in deployed.qdiscs:
            # Sick rank function: every queue reverts to pure FIFO.
            # Already-queued elements keep their ranks and keep draining
            # — a quarantined queue is never wedged.
            qdisc.revert_to_fifo()
        deployed.state = "quarantined"
        self._lifecycle_event(
            "quarantine", deployed, "quarantines", reason,
            runtime_faults=deployed.health.runtime_faults,
        )
        return deployed

    def _on_runtime_fault(self, attachment, exc, program=None):
        """HookSite fault listener: route the fault to the lifecycle.

        ``program`` is the program that actually raised.  When it is a
        canary candidate running enforced on cohort flows, the fault is
        charged to its promotion record (the controller rejects on the
        next tick) — the *active* deployment's health window is not
        touched, because the active program did nothing wrong.
        """
        if program is not None:
            for record in self._promotions:
                if (record.candidate is program
                        and record.stage in ("shadow", "canary")):
                    record.note_candidate_fault(exc, enforced=True)
                    return
        for deployed in self.deployed:
            if (deployed.program is attachment.program
                    and deployed.app_name == attachment.app_name):
                self.lifecycle.note_runtime_fault(deployed, exc)
                return

    # ------------------------------------------------------------------
    # Shadow deployment + canary promotion (docs/robustness.md)
    # ------------------------------------------------------------------
    def deploy_shadow(self, app, policy, hook=None, layer=None,
                      constants=None, name=None, canary_pct=10,
                      salt=0x5EED, validate=True, allow_imports=(),
                      guard=None, **gates):
        """Run a candidate policy in shadow against an active deployment.

        Exactly one of ``hook`` (a network hook) or ``layer`` (a qdisc
        layer) selects the target, which must already have an active
        deployment for ``app`` — the candidate taps its dispatch path,
        sees every live input, and has its verdicts recorded into a
        decision diff, never enforced.  A
        :class:`~repro.core.promote.CanaryController` registered on the
        machine's SignalBus then walks it shadow → canary-``canary_pct``%
        of flows (deterministic flow-hash split) → active, gating each
        step on the SLO ``guard`` (default: the machine tracker's
        :meth:`~repro.obs.slo.SloTracker.guard`), the agreement
        threshold, and zero candidate faults; extra ``gates`` kwargs are
        forwarded to the controller.

        When ``validate`` is on, source text runs through the hardened
        restricted loader (:mod:`repro.core.loader`) *before* touching
        the compile pipeline; a rejected source counts
        ``loader_rejections`` and raises
        :class:`~repro.core.loader.PolicyValidationError`.

        Returns the :class:`~repro.core.promote.PromotionRecord`.
        """
        if (hook is None) == (layer is None):
            raise ValueError("deploy_shadow takes exactly one of hook/layer")
        target_hook = hook if hook is not None else qdisc_hook(layer)
        if validate and isinstance(policy, str):
            try:
                check_policy_source(policy, allow_imports=allow_imports)
            except PolicyValidationError as exc:
                self._transition(
                    "loader_reject", app.name, target_hook,
                    "loader_rejections", issues=list(exc.issues),
                )
                raise
        if hook is not None and hook not in Hook.NETWORK:
            raise ValueError(
                f"deploy_shadow targets network hooks or qdisc "
                f"layers, got {hook!r}"
            )
        deployed = self._active_deployment(app.name, target_hook)
        if deployed is None or deployed.program is None:
            raise ValueError(
                f"app {app.name!r} has no active program at {target_hook} "
                "to shadow"
            )
        candidate = self._load(
            app, policy, constants, target_hook, layer, shadow=True,
        )
        classify = hook_label if hook is not None else rank_label
        record = PromotionRecord(
            name if name is not None else candidate.name,
            app.name, target_hook, candidate, deployed,
            canary_pct=canary_pct, salt=salt,
            created_at=self.machine.now,
        )
        tap = ShadowTap(record, classify)
        if hook is not None:
            site = self._site(target_hook)
            for attachment in site.attachments_for(app.name):
                attachment.shadow = tap
                record.tap_points.append(attachment)
        else:
            for qdisc in deployed.qdiscs:
                qdisc.shadow = tap
                record.tap_points.append(qdisc)
        if guard is None:
            tracker = getattr(self.machine, "slo", None)
            if tracker is not None:
                guard = tracker.guard()
        controller = CanaryController(
            self, record, guard=guard, registry=self.obs.registry, **gates,
        )
        record.controller = controller
        # A machine without a SignalBus has the null bus: both no-ops.
        controller.bus = self.machine.signals
        controller.bus.add_controller(controller.ctl_name, controller)
        self._promotions.append(record)
        self._lifecycle_event(
            "shadow", deployed, "shadow_deploys", "deployed",
            candidate=record.name,
        )
        return record

    def _clear_taps(self, record):
        for point in record.tap_points:
            shadow = point.shadow
            if shadow is not None and shadow.record is record:
                point.shadow = None
        record.tap_points = []

    def advance_shadow(self, record, stage):
        """Shadow → canary: start enforcing on the cohort flows."""
        if stage != "canary" or record.stage != "shadow":
            raise ValueError(
                f"cannot advance {record.name!r} from {record.stage!r} "
                f"to {stage!r}"
            )
        record.advance("canary", self.machine.now, "shadow_gates_passed")
        self._lifecycle_event(
            "canary", record.deployed, "canary_starts", "shadow_gates_passed",
            candidate=record.name, canary_pct=record.canary_pct,
        )
        return record

    def promote_shadow(self, record):
        """Canary → active: the candidate becomes the deployed program.

        The displaced program is kept as ``last_good``, so a probation
        breach (or any later runtime fault) rolls straight back through
        the normal lifecycle path.
        """
        deployed = record.deployed
        self._clear_taps(record)
        self._swap(deployed, record.candidate, deployed.program)
        record.advance("active", self.machine.now, "slo_gates_passed")
        self._lifecycle_event(
            "promote", deployed, "promotions", "slo_gates_passed",
            candidate=record.name,
        )
        return record

    def reject_shadow(self, record, reason):
        """Remove the candidate's taps; the record keeps the verdict."""
        self._clear_taps(record)
        record.advance("rejected", self.machine.now, reason)
        self._lifecycle_event(
            "reject", record.deployed, "shadow_rejects", reason,
            candidate=record.name,
        )
        return record

    def demote_shadow(self, record, reason):
        """Back out a promoted candidate (probation breach).

        Marks the record demoted, then enforces through
        :meth:`~repro.core.health.LifecycleManager.demote` — last-known-
        good rollback when available, quarantine otherwise.
        """
        record.advance("demoted", self.machine.now, reason)
        self._lifecycle_event(
            "demote", record.deployed, "demotions", reason,
            candidate=record.name,
        )
        self.lifecycle.demote(record.deployed, reason)
        return record

    def promotions(self):
        """One row per promotion attempt (``syrupctl promote``)."""
        return [record.snapshot() for record in self._promotions]

    # ------------------------------------------------------------------
    # Fault-driven transitions (called by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def inject_agent_crash(self, app_name):
        """Crash ``app_name``'s ghOSt agent; the watchdog takes over."""
        deployed = self._active_deployment(app_name, Hook.THREAD_SCHED)
        if deployed is None or deployed.agent is None:
            return None
        deployed.agent.crash()
        self._transition(
            "agent_crash", app_name, Hook.THREAD_SCHED, "agent_crashes",
            fd=deployed.fd,
        )
        self.lifecycle.note_agent_crash(deployed)
        return deployed

    def handle_offload_failure(self):
        """NIC offload engine died: migrate offloaded deployments to the
        XDP_SKB host path (graceful degradation, docs/robustness.md)."""
        for deployed in list(self.deployed):
            if deployed.hook == Hook.XDP_OFFLOAD and deployed.state == "active":
                self._offload_to_host(deployed)

    def handle_offload_restore(self):
        """Offload engine back: migrate fallen-back deployments home."""
        for deployed in list(self.deployed):
            if (deployed.fallback_from == Hook.XDP_OFFLOAD
                    and deployed.state == "active"):
                self._host_to_offload(deployed)

    def _offload_to_host(self, deployed):
        offload_site = self._sites.get(Hook.XDP_OFFLOAD)
        if offload_site is not None:
            offload_site.uninstall(deployed.app_name, deployed.ports)
        try:
            host_site = self._site(Hook.XDP_SKB)
        except ValueError:
            # XDP already provisioned in DRV mode for another app: no
            # compatible host path — safest is to quarantine.
            self.quarantine(deployed, reason="no_host_xdp")
            return
        # Offload executors are NIC queue indices; on the host path the
        # same indices must resolve to AF_XDP sockets.  The app's
        # queue→socket bindings (netstack.bind_af_xdp) provide exactly
        # that mapping; unbound indices become index misses (PASS).
        bindings = self.machine.netstack.afxdp_bindings
        fallback_execs = ExecutorMap(
            f"{deployed.app_name}:{Hook.XDP_SKB}:offload_fallback"
        )
        for index, socket in sorted(bindings.items()):
            fallback_execs.set(index, socket)
        if not len(fallback_execs):
            self.quarantine(deployed, reason="no_afxdp_sockets")
            return
        host_site.install(
            deployed.app_name, deployed.ports, deployed.program, fallback_execs
        ).fd = deployed.fd
        deployed.fallback_from = Hook.XDP_OFFLOAD
        deployed.hook = Hook.XDP_SKB
        self._transition(
            "offload_fallback", deployed.app_name, Hook.XDP_SKB,
            "offload_fallbacks", fd=deployed.fd, from_hook=Hook.XDP_OFFLOAD,
        )

    def _host_to_offload(self, deployed):
        host_site = self._sites.get(deployed.hook)
        if host_site is not None:
            host_site.uninstall(deployed.app_name, deployed.ports)
        self._site(Hook.XDP_OFFLOAD).install(
            deployed.app_name, deployed.ports, deployed.program,
            deployed.executors,
        ).fd = deployed.fd
        deployed.hook = Hook.XDP_OFFLOAD
        deployed.fallback_from = None
        self._transition(
            "offload_restore", deployed.app_name, Hook.XDP_OFFLOAD,
            fd=deployed.fd,
        )

    # ------------------------------------------------------------------
    def status(self):
        """Inspection (bpftool-style): every deployment with live stats."""
        rows = []
        for deployed in self.deployed:
            row = {"fd": deployed.fd, "app": deployed.app_name,
                   "hook": deployed.hook, "state": deployed.state}
            if deployed.program is not None:
                row.update(
                    name=deployed.program.name,
                    invocations=deployed.program.invocations,
                    insns=deployed.program.program.n_insns,
                    cycle_estimate=deployed.program.cycle_estimate,
                    maps=[m.name for m in deployed.program.maps],
                )
            if deployed.agent is not None:
                agent = deployed.agent
                row.update(
                    messages=agent.messages_processed,
                    commits=agent.commits,
                    failed_commits=agent.failed_commits,
                    preemptions=agent.preemptions,
                    policy_errors=agent.policy_errors,
                )
            if self.obs.enabled:
                row["metrics"] = self.obs.registry.values_for(
                    deployed.app_name, deployed.hook
                )
            rows.append(row)
        return rows

    def slo(self):
        """SLO objective rows (``syrupctl slo``); [] when untracked."""
        tracker = getattr(self.machine, "slo", None)
        return tracker.snapshot() if tracker is not None else []

    def signals(self):
        """SignalBus view (``syrupctl slo`` footer; empty when absent)."""
        return self.machine.signals.view()

    def tenants(self):
        """Per-tenant accounting snapshot (``syrupctl tenants``).

        Ledgers plus the pairwise blame matrix from
        :class:`repro.obs.accounting.TenantAccountant`; the empty shape
        ``{"tenants": [], "blame": {}}`` when accounting is disabled.
        """
        return self.obs.acct.snapshot()

    def health(self):
        """Per-deployment health rows (``syrupctl health``)."""
        now = self.machine.now
        rows = []
        for deployed in self.deployed:
            row = {"fd": deployed.fd, "app": deployed.app_name,
                   "hook": deployed.hook, "state": deployed.state}
            if deployed.fallback_from is not None:
                row["fallback_from"] = deployed.fallback_from
            if deployed.health is not None:
                row.update(deployed.health.as_dict(now=now))
            if deployed.agent is not None:
                row["agent_crashed"] = deployed.agent.crashed
                row["policy_errors"] = deployed.agent.policy_errors
            rows.append(row)
        return rows
