"""Hook sites with per-application dispatch — the datapath's front door.

Every scheduling decision in the system flows through one of these
objects.  A policy deployed by :mod:`repro.core.syrupd` never attaches to
a hook directly; it is installed behind the hook site's *root dispatcher*,
which implements §4.3's isolation mechanism literally: the site holds a
``PROG_ARRAY`` map of loaded policy programs plus port-matching rules, and
for each input the dispatcher matches the destination port and tail-calls
the owning application's program.  A policy therefore only ever sees
inputs destined to its own application's ports.

Dispatch path for one packet (the place to look when a decision seems
wrong):

1. ``decide(packet)`` looks up the packet's destination port in the port
   rules.  No rule → ``("none", None)`` and the substrate falls back to
   its default behavior (a *dispatch miss*, counted per hook).
2. The matched attachment's program — the one its ``PROG_ARRAY`` slot
   holds: ``install`` / ``replace`` / ``uninstall`` keep the two in step,
   and a slot is freed once no port rule references its attachment — is
   run (:class:`repro.ebpf.program.LoadedProgram` — interpreter while
   profiling, JIT after).
3. The u32 decision is enforced: ``PASS`` defers to the default policy,
   ``DROP`` discards, and any other value indexes the app's executor map.
   An index the app never populated (an *index miss*) falls back to PASS,
   the safest default.

The site exposes the substrate-facing protocol expected by
:mod:`repro.kernel.netstack` and :mod:`repro.net.nic`:
``decide(packet) -> (action, target)`` and ``cost_us(packet)``.

Observability: when the machine runs with ``metrics=True``, every
attachment carries per-``(app, hook)`` counters — ``schedule_calls``,
``pass`` / ``drop`` / ``steer`` outcomes, ``index_miss`` — and each
decision is recorded in the structured event trace (kind ``decision``).
With observability off an attachment holds None for each counter, so a
dark decision touches no metric object at all.  See docs/observability.md
for the full catalogue.
"""

from repro.constants import DROP, PASS
from repro.ebpf.errors import VmFault
from repro.ebpf.maps import ProgArrayMap
from repro.obs import DISABLED, NULL_METRIC
from repro.obs.probe import NULL_PROBE

__all__ = ["Hook", "HookSite"]

#: App label for site-level metrics not attributable to one application.
ROOT_APP = "(root)"

#: The verdicts that name no target, shared by every decision.
_PASS, _DROP = ("pass", None), ("drop", None)


class Hook:
    """The hooks of paper Figure 4."""

    THREAD_SCHED = "thread_sched"
    SOCKET_SELECT = "socket_select"
    CPU_REDIRECT = "cpu_redirect"
    XDP_SKB = "xdp_skb"
    XDP_DRV = "xdp_drv"
    XDP_OFFLOAD = "xdp_offload"

    NETWORK = (SOCKET_SELECT, CPU_REDIRECT, XDP_SKB, XDP_DRV, XDP_OFFLOAD)
    ALL = (THREAD_SCHED,) + NETWORK

    #: Hooks whose executor targets are plain integers (core / queue ids)
    #: rather than app-registered objects.
    INTEGER_EXECUTORS = (CPU_REDIRECT, XDP_OFFLOAD)


class _Attachment:
    __slots__ = ("app_name", "program", "executors", "prog_index", "fd",
                 "m_sched", "m_pass", "m_drop", "m_steer", "m_miss",
                 "m_fault", "shadow")

    def __init__(self, app_name, program, executors, prog_index, registry,
                 hook):
        self.app_name = app_name
        self.program = program
        self.executors = executors
        self.prog_index = prog_index
        self.fd = None  # deployed-policy fd, stamped by syrupd post-install
        # Optional repro.core.promote.ShadowTap running a candidate
        # policy side-by-side; installed/cleared by Syrupd.deploy_shadow.
        self.shadow = None
        counters = [registry.counter(app_name, hook, name) for name in (
            "schedule_calls", "pass", "drop", "steer", "index_miss",
            "runtime_faults")]
        # None for the null registry's no-op metric: a dark decision
        # skips its counters without a call.
        (self.m_sched, self.m_pass, self.m_drop, self.m_steer, self.m_miss,
         self.m_fault) = [None if c is NULL_METRIC else c for c in counters]


class HookSite:
    """One hook point's dispatcher (root matcher + PROG_ARRAY)."""

    def __init__(self, hook, costs, max_programs=64, obs=None,
                 probe=NULL_PROBE):
        self.hook = hook
        self.costs = costs
        self.obs = obs if obs is not None else DISABLED
        # Instrumentation seam (repro.obs.probe): one ``decision`` per
        # policy invocation, ``policy_exec`` per charged execution cost.
        self.probe = probe
        self.prog_array = ProgArrayMap(f"{hook}:prog_array", max_programs)
        self._port_rules = {}       # dst port -> _Attachment
        self.pass_decisions = 0
        self.drop_decisions = 0
        self.runtime_faults = 0
        # Optional callback fn(attachment, exc, program) invoked after a
        # program raises VmFault; syrupd wires this to the lifecycle
        # manager so repeated faults can quarantine/roll back the
        # deployment (or charge a canary candidate's promotion record).
        self.fault_listener = None
        self._events = self.obs.events
        self._m_dispatch_miss = self.obs.registry.counter(
            ROOT_APP, hook, "dispatch_miss"
        )

    # ------------------------------------------------------------------
    def install(self, app_name, ports, loaded_program, executors):
        """Insert port-matching rules tail-calling the app's program.

        The program takes the lowest free PROG_ARRAY slot; a slot is freed
        once no port rule references its attachment any more."""
        ports = list(ports)
        for port in ports:
            existing = self._port_rules.get(port)
            if existing is not None and existing.app_name != app_name:
                raise PermissionError(
                    f"port {port} already claimed by app "
                    f"{existing.app_name!r} at hook {self.hook}"
                )
        index = 0
        while self.prog_array.lookup(index) is not None:
            index += 1
        # Past max_programs this raises KeyError: every slot is taken.
        self.prog_array.update(index, loaded_program)
        attachment = _Attachment(
            app_name, loaded_program, executors, index, self.obs.registry,
            self.hook,
        )
        displaced = self._unbind(app_name, ports)
        for port in ports:
            self._port_rules[port] = attachment
        self._free_slots(displaced)
        return attachment

    def uninstall(self, app_name, ports):
        self._free_slots(self._unbind(app_name, ports))

    def _unbind(self, app_name, ports):
        """Drop ``app_name``'s rules on ``ports``; returns the attachments
        they pointed at."""
        removed = []
        for port in ports:
            attachment = self._port_rules.get(port)
            if attachment is not None and attachment.app_name == app_name:
                del self._port_rules[port]
                if attachment not in removed:
                    removed.append(attachment)
        return removed

    def _free_slots(self, attachments):
        """Release the PROG_ARRAY slot of each attachment no rule still
        references."""
        live = self._port_rules.values()
        for attachment in attachments:
            if attachment not in live:
                self.prog_array.delete(attachment.prog_index)

    def replace(self, app_name, loaded_program):
        """Hot-swap ``app_name``'s program in place (redeploy/rollback).

        Port rules, executor maps and PROG_ARRAY slots are kept; only the
        tail-call target changes — packets in flight before the swap ran
        the old program, packets after run the new one.  Returns the
        number of attachments updated.
        """
        swapped = []
        for port in sorted(self._port_rules):
            attachment = self._port_rules[port]
            if attachment.app_name != app_name or attachment in swapped:
                continue
            self.prog_array.update(attachment.prog_index, loaded_program)
            attachment.program = loaded_program
            swapped.append(attachment)
        return len(swapped)

    def attachment_for_port(self, port):
        return self._port_rules.get(port)

    def attachments_for(self, app_name):
        """The app's distinct attachments, in port order (shadow taps)."""
        seen = []
        for port in sorted(self._port_rules):
            attachment = self._port_rules[port]
            if attachment.app_name == app_name and attachment not in seen:
                seen.append(attachment)
        return seen

    # -- substrate-facing protocol --------------------------------------
    def decide(self, packet):
        attachment = self._port_rules.get(packet.dst_port)
        if attachment is None:
            self._m_dispatch_miss.inc()
            return ("none", None)
        # root dispatcher tail call: install / replace / uninstall keep the
        # attachment's program and its PROG_ARRAY slot in step
        program = attachment.program
        shadow = attachment.shadow
        if shadow is not None:
            # Canary stage: cohort flows run the candidate *enforced*;
            # everything else stays on the active program.
            program = shadow.pick_program(program, packet)
        try:
            value = program.run(packet)
        except VmFault as exc:
            # A faulting policy costs its *own* app the packet — the
            # XDP_ABORTED analogue — and never escapes the dispatcher
            # (§4.3 isolation).  The lifecycle manager may quarantine
            # the deployment after repeated faults (docs/robustness.md).
            return self._on_fault(attachment, packet, exc, program)
        if shadow is not None and program is attachment.program:
            # Shadow-execute the candidate on the same input; its
            # verdict is recorded in the decision diff, never enforced,
            # and its faults are contained inside the tap.
            shadow.observe(value, packet)
        if value == PASS:
            self.pass_decisions += 1
            outcome, counter, verdict = "pass", attachment.m_pass, _PASS
            value = None  # neither the event nor the seam carries one
        elif value == DROP:
            self.drop_decisions += 1
            outcome, counter, verdict = "drop", attachment.m_drop, _DROP
            value = None
        else:
            executors = attachment.executors  # ExecutorMap.resolve, inlined
            executor = executors._slots.get(value)
            if executor is None:
                # index the app never populated: safest is the default policy
                executors.invalid_lookups += 1
                self.pass_decisions += 1
                outcome, counter = "index_miss", attachment.m_miss
                verdict = _PASS
            else:
                outcome, counter = "steer", attachment.m_steer
                verdict = ("target", executor)
        m_sched = attachment.m_sched
        if m_sched is not None:
            # Counter.inc() of schedule_calls and the outcome, written out
            m_sched.value += 1
            counter.value += 1
            m_sched.updated_at = counter.updated_at = m_sched._clock.now
        # One decision: a ``decision`` event (``value`` only when the
        # outcome has one, EventTrace.emit written out) and the probe's
        # ``decision`` seam, linked by the event's ``seq`` when live.
        events = self._events
        seq = None
        if events.enabled:
            event = {"ts": events.clock.now, "kind": "decision",
                     "app": attachment.app_name, "hook": self.hook,
                     "port": packet.dst_port, "outcome": outcome}
            if value is not None:
                event["value"] = value
            events.emitted = seq = events.emitted + 1
            events._ring.append(event)
        self.probe.decision(packet, self.hook, outcome, value, attachment.fd,
                            seq)
        return verdict

    def _on_fault(self, attachment, packet, exc, program=None):
        """Contain a runtime fault: count, trace, notify, drop the input.

        ``program`` is the program that actually raised — normally the
        attachment's active program, but during a canary stage it may
        be the shadow candidate, and the listener uses the distinction
        to charge the fault to the promotion record instead of the
        active deployment's health window.
        """
        self.runtime_faults += 1
        self.drop_decisions += 1
        if attachment.m_sched is not None:
            attachment.m_sched.inc()
            attachment.m_fault.inc()
        events = self._events
        if events.enabled:
            events.emit(
                "runtime_fault", app=attachment.app_name, hook=self.hook,
                port=packet.dst_port, error=type(exc).__name__,
                detail=str(exc),
            )
        self.probe.decision(
            packet, self.hook, "fault", None, attachment.fd,
            events.emitted if events.enabled else None,
        )
        listener = self.fault_listener
        if listener is not None:
            listener(attachment, exc, program)
        return ("drop", None)

    def cost_us(self, packet):
        attachment = self._port_rules.get(packet.dst_port)
        if attachment is None:
            return 0.0
        # CostModel.cycles_to_us, inlined: the same float expression
        cost = attachment.program.cycle_estimate / (
            self.costs.cpu_ghz * 1000.0)
        # Policy execution time is part of the owning tenant's bill: the
        # substrate charges this cost on the datapath, so the accountant
        # books it against the tenant whose packet triggered the program.
        self.probe.policy_exec(packet, cost)
        return cost

    def __repr__(self):
        return f"<HookSite {self.hook} ports={sorted(self._port_rules)}>"
