"""The qdisc runtime: rank compilation, the Qdisc object, layer glue.

A :class:`Qdisc` pairs one compiled **rank function** with one ordering
backend (:mod:`repro.qdisc.backends`) and hangs off a single queue of the
stack — a socket backlog, a NIC RX queue, or a ghOSt runqueue.  The
substrate stays the owner of its elements; the qdisc only decides *order*
(and, under overflow, *which* element to shed).

Rank execution charges **zero simulated time**: PIFO's premise is rank
computation at line rate, and keeping the datapath timing untouched is
what makes "no qdisc" vs "PASS-everywhere qdisc" bit-identical — the
paired-run determinism contract (docs/scheduling-order.md, locked by
tests/test_qdisc_integration.py).

Fault containment mirrors the hook sites (docs/robustness.md): a rank
function raising :class:`~repro.ebpf.errors.VmFault` never loses the
element — it is enqueued with the FIFO rank instead (ordering is advisory;
correctness never depends on it) — and the fault is reported to syrupd's
lifecycle manager, which may quarantine the discipline back to pure FIFO
(:meth:`Qdisc.revert_to_fifo`).  Already-queued elements keep their ranks
and drain normally, so a quarantined queue is never wedged.
"""

import re

from repro.constants import DROP, PASS
from repro.ebpf.compiler import compile_policy, function_source
from repro.ebpf.errors import CompileError
from repro.net.packet import WireView
from repro.qdisc.backends import make_backend

__all__ = [
    "LAYERS",
    "LAYER_NIC_RX",
    "LAYER_RUNQUEUE",
    "LAYER_SOCKET",
    "OfferResult",
    "Qdisc",
    "ThreadCtx",
    "compile_rank",
    "qdisc_hook",
]

#: Attachment layers (the ``layer=`` argument of ``deploy_qdisc``).
LAYER_NIC_RX = "nic_rx"
LAYER_SOCKET = "socket"
LAYER_RUNQUEUE = "runqueue"
LAYERS = (LAYER_NIC_RX, LAYER_SOCKET, LAYER_RUNQUEUE)

#: Rank assigned to PASS / foreign / faulting elements: front bucket,
#: FIFO among themselves by the backends' arrival tie-break.
FIFO = 0

_RANK_DEF = re.compile(r"^def\s+rank\s*\(", flags=re.MULTILINE)


def qdisc_hook(layer):
    """The hook label a qdisc deployment is tracked under (``qdisc:<layer>``).

    Distinct from the matching-function hooks in :class:`repro.core.hooks.Hook`
    — qdisc deployments never install into a HookSite dispatcher — but used
    the same way everywhere else: metric scopes, event fields, fault-plan
    targeting (``FaultPlan.vmfault(hook=qdisc_hook("socket"))``).
    """
    if layer not in LAYERS:
        raise ValueError(f"unknown qdisc layer {layer!r}; known: {LAYERS}")
    return f"qdisc:{layer}"


def compile_rank(source, name=None, constants=None, unroll_limit=64):
    """Compile a rank function to a Program via the policy pipeline.

    Rank files define ``def rank(pkt):`` (so a policy file can't be
    deployed as a qdisc by accident, and vice versa); this renames the
    module-level definition to the compiler's expected ``schedule`` and
    reuses :func:`repro.ebpf.compiler.compile_policy` unchanged — same
    safe subset, same verifier, same JIT.
    """
    if callable(source):
        source, name = function_source(source, name)
    renamed, n = _RANK_DEF.subn("def schedule(", source, count=1)
    if n == 0:
        raise CompileError(
            "a rank policy must define a module-level 'rank' function"
        )
    return compile_policy(
        renamed, name=name or "rank", constants=constants,
        unroll_limit=unroll_limit,
    )


class ThreadCtx(WireView):
    """Packet-shaped view of a thread for runqueue-layer rank functions.

    Rank functions always read their element through the packet builtins;
    at the runqueue layer the element is a :class:`~repro.kernel.threads.KThread`,
    so the agent wraps it in this 16-byte context: u64 thread id at offset
    0, 8 reserved zero bytes after — ``load_u64(t, 0)`` is the Map key an
    app uses to publish per-thread signals (service class, measured burst).
    """

    __slots__ = ()

    length = 16

    def __init__(self, tid):
        self._data = int(tid).to_bytes(8, "little") + b"\x00" * 8

    def __repr__(self):
        return f"<ThreadCtx tid={self.load(0, 8)}>"


class OfferResult:
    """Outcome of :meth:`Qdisc.offer` for one arriving element."""

    __slots__ = ("accepted", "evicted", "rank", "reason")

    def __init__(self, accepted, evicted=None, rank=None, reason=None):
        self.accepted = accepted   # arriving element is now queued
        self.evicted = evicted     # previously-queued element shed, or None
        self.rank = rank           # rank assigned to the arriving element
        self.reason = reason       # None | "sched_drop" | "overflow"

    def __repr__(self):
        return (
            f"<OfferResult accepted={self.accepted} rank={self.rank} "
            f"reason={self.reason}>"
        )


class Qdisc:
    """One rank function + one ordering backend on one queue.

    ``program`` is the loaded rank function (or None — pure FIFO, the
    quarantined/default mode).  ``ports`` restricts ranking to the owning
    app's traffic: elements whose ``flow.dst_port`` is elsewhere get the
    FIFO rank without the program ever seeing them (per-app isolation at
    shared queues, e.g. a NIC RX ring carrying several apps).  Pass
    ``ports=None`` for element types without ports (threads).
    """

    def __init__(self, app_name, layer, backend="pifo", program=None,
                 ports=None, backend_kwargs=None):
        if layer not in LAYERS:
            raise ValueError(f"unknown qdisc layer {layer!r}; known: {LAYERS}")
        self.app_name = app_name
        self.layer = layer
        self.hook = qdisc_hook(layer)
        self.backend_name = backend
        self.queue = make_backend(backend, **(backend_kwargs or {}))
        self.program = program
        self.ports = None if ports is None else set(ports)
        #: Label of the queue this qdisc hangs off ("sid:3", "rxq:1",
        #: "enclave:rocksdb"); set by the attach point, shown by syrupctl.
        self.target = None
        #: callable(qdisc, exc): syrupd routes rank-function faults into
        #: the lifecycle manager (quarantine on window breach).
        self.fault_listener = None
        #: Optional repro.core.promote.ShadowTap running a candidate
        #: rank function side-by-side; set by Syrupd.deploy_shadow.
        self.shadow = None
        #: callable(): undo this qdisc's attachment; set by syrupd's
        #: attach helpers, invoked by undeploy.
        self._detach = None
        # Always-on plain counters (the syrupctl view must work with the
        # obs registry disabled).
        self.enqueues = 0
        self.dequeues = 0
        self.sched_drops = 0      # rank function returned DROP
        self.overflow_drops = 0   # capacity shed (arriving or evicted)
        self.evictions = 0        # overflow victims that were *queued*
        self.runtime_faults = 0
        self.rank_count = 0
        self.rank_sum = 0
        self.rank_min = None
        self.rank_max = None
        #: Optional dict of obs counters + a "rank" histogram; set by
        #: syrupd at deploy time when the machine runs with metrics on.
        self.metrics = None
        self.depth_gauge = None

    # ------------------------------------------------------------------
    @property
    def state(self):
        return "active" if self.program is not None else "fifo"

    def __len__(self):
        return len(self.queue)

    # ------------------------------------------------------------------
    def rank_of(self, item, ctx=None):
        """Run the rank function; returns an int rank or ``DROP``.

        Faults are contained here: the element gets the FIFO rank, the
        fault is counted and reported, the caller never sees it.
        """
        program = self.program
        if program is None:
            return FIFO
        if self.ports is not None:
            flow = getattr(item, "flow", None)
            if flow is None or flow.dst_port not in self.ports:
                return FIFO  # foreign traffic: never shown to the program
        shadow = self.shadow
        if shadow is not None:
            # Canary stage: cohort flows are ranked by the candidate.
            program = shadow.pick_program(program, item)
        try:
            decision = program.run(ctx if ctx is not None else item)
        except Exception as exc:  # noqa: BLE001 - untrusted rank function
            if shadow is not None and program is not self.program:
                # Enforced candidate faulted: charge the promotion
                # record, not the active deployment's health window —
                # the element still gets the safe FIFO rank.
                shadow.record.note_candidate_fault(exc, enforced=True)
                return FIFO
            self.runtime_faults += 1
            if self.metrics is not None:
                self.metrics["runtime_faults"].inc()
            if self.fault_listener is not None:
                self.fault_listener(self, exc)
            return FIFO  # ordering is advisory: never lose the element
        if shadow is not None and program is self.program:
            shadow.observe(decision, item, ctx)
        if decision == PASS:
            return FIFO
        if decision == DROP:
            return DROP
        return decision

    # ------------------------------------------------------------------
    def offer(self, item, capacity=None, ctx=None):
        """Rank + enqueue one element, honouring ``capacity``.

        Overflow policy (the satellite contract): under a non-FIFO
        discipline the *lowest-priority* element is shed — push the
        arrival, then evict the backend's ``worst()`` (numerically
        largest rank, newest on ties).  With every rank equal (pure FIFO,
        PASS-everywhere, quarantined) the worst entry *is* the newest, so
        the policy collapses to the substrate's historical drop-tail.
        """
        rank = self.rank_of(item, ctx=ctx)
        metrics = self.metrics
        if rank == DROP:
            self.sched_drops += 1
            if metrics is not None:
                metrics["sched_drops"].inc()
            return OfferResult(False, rank=None, reason="sched_drop")
        queue = self.queue
        depth = len(queue)  # the backend's length, read once per offer
        queue.push(rank, item)
        victim = None
        if capacity is not None and depth >= capacity:
            _worst_rank, victim = queue.worst()
            self.overflow_drops += 1
            if metrics is not None:
                metrics["overflow_drops"].inc()
        else:
            depth += 1
        gauge = self.depth_gauge
        if gauge is not None:  # Gauge.set(), written out
            gauge.value = depth
            gauge.updated_at = gauge._clock.now
        if victim is item:
            return OfferResult(False, rank=None, reason="overflow")
        if victim is not None:
            # An older, lower-priority element made room for the arrival.
            self.evictions += 1
            if metrics is not None:
                metrics["evictions"].inc()
        self.enqueues += 1
        self.rank_count += 1
        self.rank_sum += rank
        if self.rank_min is None or rank < self.rank_min:
            self.rank_min = rank
        if self.rank_max is None or rank > self.rank_max:
            self.rank_max = rank
        if metrics is not None:
            metrics["enqueues"].inc()
            metrics["rank"].observe(rank)
        return OfferResult(True, evicted=victim, rank=rank,
                           reason=None if victim is None else "overflow")

    def take(self):
        """Dequeue the minimum-rank element (None if empty)."""
        item = self.queue.pop()
        if item is not None:
            self.dequeues += 1
            if self.metrics is not None:
                self.metrics["dequeues"].inc()
            gauge = self.depth_gauge
            if gauge is not None:  # Gauge.set(), written out
                gauge.value = len(self.queue)
                gauge.updated_at = gauge._clock.now
        return item

    def drain(self):
        """Remove and return every queued element in rank order."""
        out = []
        while True:
            item = self.take()
            if item is None:
                return out
            out.append(item)

    def order(self, items, ctx_factory=None):
        """Transiently rank a snapshot (the runqueue layer's mode).

        A ghOSt runqueue is rebuilt from kernel state on every agent
        decision, so instead of owning elements the qdisc sorts each
        snapshot: push all, pop all.  ``DROP`` is meaningless for threads
        (work can't be shed) and is treated as PASS.  Uses a scratch
        backend instance so queued-element state is untouched.
        """
        if len(items) < 2:
            return list(items)
        scratch = make_backend(self.backend_name)
        for item in items:
            ctx = ctx_factory(item) if ctx_factory is not None else item
            rank = self.rank_of(item, ctx=ctx)
            if rank == DROP:
                rank = FIFO
            self.rank_count += 1
            self.rank_sum += rank
            if self.rank_min is None or rank < self.rank_min:
                self.rank_min = rank
            if self.rank_max is None or rank > self.rank_max:
                self.rank_max = rank
            if self.metrics is not None:
                self.metrics["rank"].observe(rank)
            scratch.push(rank, item)
        ordered = []
        while True:
            item = scratch.pop()
            if item is None:
                break
            ordered.append(item)
        self.enqueues += len(ordered)
        self.dequeues += len(ordered)
        if self.metrics is not None:
            self.metrics["enqueues"].inc(len(ordered))
            self.metrics["dequeues"].inc(len(ordered))
        return ordered

    # ------------------------------------------------------------------
    def revert_to_fifo(self):
        """Quarantine: drop the rank program; the queue becomes FIFO.

        Elements already queued keep their assigned ranks and drain in
        that order — nothing is re-ranked, nothing is stranded.  New
        arrivals get the FIFO rank (and drop-tail overflow).
        """
        self.program = None
        return self

    # ------------------------------------------------------------------
    def snapshot(self):
        """One row for ``syrupctl qdisc``."""
        row = {
            "app": self.app_name,
            "layer": self.layer,
            "hook": self.hook,
            "target": self.target,
            "backend": self.backend_name,
            "state": self.state,
            "depth": len(self.queue),
            "enqueues": self.enqueues,
            "dequeues": self.dequeues,
            "sched_drops": self.sched_drops,
            "overflow_drops": self.overflow_drops,
            "evictions": self.evictions,
            "runtime_faults": self.runtime_faults,
            "rank_count": self.rank_count,
            "rank_mean": (self.rank_sum / self.rank_count
                          if self.rank_count else None),
            "rank_min": self.rank_min,
            "rank_max": self.rank_max,
        }
        if self.program is not None:
            row["program"] = self.program.name
        return row

    def __repr__(self):
        return (
            f"<Qdisc app={self.app_name} layer={self.layer} "
            f"backend={self.backend_name} state={self.state} "
            f"depth={len(self.queue)}>"
        )
