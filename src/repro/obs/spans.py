"""Causal span tracing: one sampled request, every layer it touches.

Aggregates (:mod:`repro.obs.registry`) answer "how much, ever?" but
cannot look at a *single* p99 request and say which hop queued it,
under which policy decision, behind which queue depth.  A
:class:`SpanTracer` follows each head-sampled request across the stack
and records a flat tree of **spans** (name, start, end, attrs), all in
simulated microseconds:

- ``nic_queue`` — wire arrival at the NIC until IRQ delivery into the
  kernel receive path (:meth:`repro.net.nic.Nic.receive`).
- ``decision:<hook>`` — one policy invocation at a hook site, a
  zero-duration span carrying the outcome, the returned value, the
  deployed policy ``fd``, and (when the event trace is live) the ``seq``
  of the matching ``decision`` event.
- ``softirq`` — softirq-core FIFO submission until protocol processing
  completes (queue wait + processing on the chosen core).
- ``socket_wait`` — datagram enqueue until a worker thread pulls it,
  annotated with ``depth``: the socket backlog *at enqueue*.
- ``runqueue_wait`` / ``placement`` — for thread-scheduled apps, the
  woken thread's wait for a scheduling decision and (ghOSt) the
  commit+IPI latency of the agent's transaction.
- ``service`` — work pulled until the item completes (context switch +
  syscalls + application service time).
- ``switch_steer`` / ``xnet_wait`` / ``machine_queue`` — fleet-tier
  spans (:mod:`repro.cluster.fleet`): the ToR steering decision (with
  the chosen machine and policy name, and ``resteer`` on failover), a
  cross-rack wire transit (request or response direction), and the
  chosen machine's aggregate queue wait.  Sampling for fleet requests
  happens at a first :meth:`SpanTracer.switch_steer` instead of the NIC.

**Head sampling is deterministic**: every ``sample_every``-th
request-bearing packet at NIC arrival is traced — a counter, no RNG.
The tracer obeys the tree-wide determinism contract: it draws no
randomness, schedules no engine events, and mutates no simulation
state, so every simulation result is bit-identical with spans on or
off (``tests/test_spans.py`` locks this with paired runs).  The
datapath reaches the tracer only through :mod:`repro.obs.probe`: every
public method below that is not a view is a seam named in
:data:`repro.obs.probe.SEAMS`.  Off is ``None``: a machine built
without ``spans=`` holds no tracer (``obs.spans is None``).

Enable with ``Machine(spans=N)`` (``True`` ⇒ every request).  Completed
trees live in a bounded ring (``capacity``); export them for
``chrome://tracing`` / Perfetto with :meth:`SpanTracer.to_chrome_trace`
and feed them to :func:`repro.obs.tail.critical_path` for the p50-vs-p99
attribution table (``syrupctl spans`` / ``syrupctl tail``) or to
:func:`repro.obs.tail.stage_percentiles` for the per-stage breakdown.
"""

import json
from collections import deque

from repro.obs.export import open_destination
from repro.obs.registry import ZERO_CLOCK

__all__ = ["SpanTracer"]

DEFAULT_CAPACITY = 4096


class SpanTracer:
    """Cross-layer span trees for deterministically head-sampled requests."""

    def __init__(self, clock=None, sample_every=1, capacity=DEFAULT_CAPACITY):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.clock = clock if clock is not None else ZERO_CLOCK
        self.sample_every = int(sample_every)
        self.capacity = capacity
        self.seen = 0            # request-bearing packets observed at the NIC
        self.sampled = 0         # trees started
        self.completed_count = 0
        self.aborted_count = 0
        # request -> open tree.  Keyed by the request object, not its
        # rid: rids restart at 0 per generator, so two generators on one
        # machine reuse them.
        self._live = {}
        self._done = deque(maxlen=capacity)
        # Thread-side pending state, consumed at service_begin: tid -> ts
        # of the wake that made the thread RUNNABLE, and tid -> (ts, core)
        # of an in-flight ghOSt commit transaction.
        self._wakes = {}
        self._placements = {}

    # ------------------------------------------------------------------
    # Tree bookkeeping.  Every seam looks its tree up inline
    # (``self._live.get(request)``), never through a helper: most requests
    # are unsampled and leave after that one miss, with no second frame.
    # A packet without a request misses too (``_live.get(None)``).
    # ------------------------------------------------------------------
    def _begin(self, request):
        """Open a tree for a sampled request; ``_key`` and ``_open`` are
        private bookkeeping that :meth:`_finalize` deletes."""
        self.sampled += 1
        tree = {
            "rid": request.rid,
            "rtype": request.rtype,
            "start": self.clock.now,
            "end": None,
            "complete": False,
            "abort_reason": None,
            "spans": [],
            "_open": {},
            "_key": request,
        }
        self._live[request] = tree
        return tree

    def _open(self, tree, name, start, **attrs):
        span = {"name": name, "start": start, "end": None}
        if attrs:
            span["attrs"] = attrs
        tree["spans"].append(span)
        tree["_open"][name] = span
        return span

    def _close(self, tree, name, end, **attrs):
        span = tree["_open"].pop(name, None)
        if span is None:
            return None
        span["end"] = end
        if attrs:
            span.setdefault("attrs", {}).update(attrs)
        return span

    def _add(self, tree, name, start, end, **attrs):
        span = {"name": name, "start": start, "end": end}
        if attrs:
            span["attrs"] = attrs
        tree["spans"].append(span)
        return span

    def _finalize(self, tree, complete, reason=None):
        now = self.clock.now
        for span in list(tree["_open"].values()):
            span["end"] = now
        del tree["_open"]
        tree["end"] = now
        tree["complete"] = complete
        if reason is not None:
            tree["abort_reason"] = reason
        self._live.pop(tree.pop("_key"), None)
        self._done.append(tree)
        if complete:
            self.completed_count += 1
        else:
            self.aborted_count += 1

    # ------------------------------------------------------------------
    # NIC seams (repro.net.nic)
    # ------------------------------------------------------------------
    def nic_arrival(self, packet):
        """Head-sampling point: every Nth request-bearing packet."""
        request = packet.request
        if request is None:
            return
        self.seen += 1
        if (self.seen - 1) % self.sample_every:
            return
        if request in self._live:
            return  # retransmit of an already-sampled request
        tree = self._begin(request)
        self._open(tree, "nic_queue", tree["start"])

    def nic_delivered(self, packet, queue):
        tree = self._live.get(packet.request)
        if tree is None:
            return
        self._close(tree, "nic_queue", self.clock.now, queue=queue)

    # ------------------------------------------------------------------
    # Hook sites (repro.core.hooks)
    # ------------------------------------------------------------------
    def decision(self, packet, hook, outcome, value, fd, seq):
        """A policy decided this packet's fate: a zero-duration span
        linked to the decision event (``seq``) and the deployed ``fd``."""
        tree = self._live.get(packet.request)
        if tree is None:
            return
        now = self.clock.now
        attrs = {"outcome": outcome}
        if value is not None:
            attrs["value"] = value
        if fd is not None:
            attrs["fd"] = fd
        if seq is not None:
            attrs["seq"] = seq
        self._add(tree, f"decision:{hook}", now, now, **attrs)

    # ------------------------------------------------------------------
    # Kernel receive path (repro.kernel.netstack / sockets)
    # ------------------------------------------------------------------
    def softirq_begin(self, packet, core, depth):
        tree = self._live.get(packet.request)
        if tree is None:
            return
        self._open(tree, "softirq", self.clock.now, core=core, depth=depth)

    def softirq_end(self, packet):
        tree = self._live.get(packet.request)
        if tree is None:
            return
        self._close(tree, "softirq", self.clock.now)

    def socket_enqueued(self, packet, socket, depth):
        """Datagram landed in a socket backlog ``depth`` entries deep."""
        tree = self._live.get(packet.request)
        if tree is None:
            return
        self._open(tree, "socket_wait", self.clock.now, sid=socket.sid,
                   depth=depth)

    def drop(self, packet, reason):
        """The stack dropped this packet; the tree ends incomplete."""
        tree = self._live.get(packet.request)
        if tree is None:
            return
        self._finalize(tree, complete=False, reason=reason)

    # ------------------------------------------------------------------
    # Queueing disciplines (repro.qdisc)
    # ------------------------------------------------------------------
    def qdisc_enqueued(self, packet, layer, rank, backend):
        """A qdisc accepted this packet with ``rank`` (repro.qdisc).

        Opens a ``qdisc_wait`` span recording the assigned rank, the
        attachment layer, and the ordering backend; closed by
        :meth:`qdisc_dequeued` when the element is pulled in rank order.
        The NIC- and socket-layer waits never overlap, so one span name
        suffices.
        """
        tree = self._live.get(packet.request)
        if tree is None:
            return
        self._open(tree, "qdisc_wait", self.clock.now, layer=layer,
                   rank=rank, backend=backend)

    def qdisc_dequeued(self, packet):
        """The qdisc released this packet; close its ``qdisc_wait`` span."""
        tree = self._live.get(packet.request)
        if tree is None:
            return
        self._close(tree, "qdisc_wait", self.clock.now)

    # ------------------------------------------------------------------
    # Fleet tier (repro.cluster.fleet): one seam per request event, and
    # one per rare path (dead machine, held response, failover, drop)
    # ------------------------------------------------------------------
    def switch_steer(self, request, machine, policy, resteer):
        """The ToR steered the request to ``machine`` (None: shed).  A
        first steer is the fleet's head-sampling point; a steer adds a
        zero-duration span (policy name, ``resteer`` on failover) and
        opens the request's ``xnet_wait``."""
        if not resteer:
            self.seen += 1
            if not (self.seen - 1) % self.sample_every:
                self._begin(request)
        tree = self._live.get(request)
        if tree is None or machine is None:
            return
        now = self.clock.now
        attrs = {"machine": machine,
                 "policy": getattr(policy, "name", "custom")}
        if resteer:
            attrs["resteer"] = True
        self._add(tree, "switch_steer", now, now, **attrs)
        self._open(tree, "xnet_wait", now, direction="request",
                   machine=machine)

    def xnet_begin(self, request, machine):
        """A response held behind a dead link went onto the rack wire."""
        tree = self._live.get(request)
        if tree is None:
            return
        self._open(tree, "xnet_wait", self.clock.now, direction="response",
                   machine=machine)

    def xnet_end(self, request):
        """The request reached a dead machine; close its ``xnet_wait``."""
        tree = self._live.get(request)
        if tree is None:
            return
        self._close(tree, "xnet_wait", self.clock.now)

    def machine_enqueued(self, request, machine, depth):
        """The request joined a busy fleet machine's queue ``depth`` deep."""
        tree = self._live.get(request)
        if tree is None:
            return
        now = self.clock.now
        self._close(tree, "xnet_wait", now)
        self._open(tree, "machine_queue", now, machine=machine, depth=depth)

    def machine_requeued(self, request):
        """A failover re-steer: close the orphaned ``machine_queue`` or
        ``service`` span so the new attempt gets fresh ones."""
        tree = self._live.get(request)
        if tree is None:
            return
        now = self.clock.now
        self._close(tree, "machine_queue", now, orphaned=True)
        self._close(tree, "service", now, orphaned=True)

    def fleet_service_begin(self, request, machine):
        """Service starts, straight off the wire or out of the queue."""
        tree = self._live.get(request)
        if tree is None:
            return
        now = self.clock.now
        self._close(tree, "xnet_wait", now)
        self._close(tree, "machine_queue", now)
        self._open(tree, "service", now, machine=machine)

    def fleet_service_end(self, request, machine):
        """Service finished; the response leaves ``machine`` (None: held)."""
        tree = self._live.get(request)
        if tree is None:
            return
        now = self.clock.now
        self._close(tree, "service", now)
        if machine is not None:
            self._open(tree, "xnet_wait", now, direction="response",
                       machine=machine)

    def fleet_complete(self, request):
        """The response reached the client; the tree is complete."""
        tree = self._live.get(request)
        if tree is None:
            return
        self._finalize(tree, complete=True)

    def fleet_drop(self, request, reason):
        """The fleet shed this request; the tree ends incomplete."""
        tree = self._live.get(request)
        if tree is None:
            return
        self._finalize(tree, complete=False, reason=reason)

    # ------------------------------------------------------------------
    # Thread scheduling (repro.kernel.sched / cfs, repro.ghost)
    # ------------------------------------------------------------------
    def thread_runnable(self, thread):
        """A blocked thread went RUNNABLE (CFS/ghOSt wake)."""
        self._wakes[thread.tid] = self.clock.now

    def placement_begin(self, thread, core_id):
        """A ghOSt commit transaction is in flight for ``thread``."""
        self._placements[thread.tid] = (self.clock.now, core_id)

    def placement_abort(self, thread):
        """The transaction aborted; discard the pending placement."""
        self._placements.pop(thread.tid, None)

    def service_begin(self, thread, token):
        """``thread`` pulled a work item; close the wait-side spans."""
        wake_ts = self._wakes.pop(thread.tid, None)
        placement = self._placements.pop(thread.tid, None)
        tree = self._live.get(token)
        if tree is None:
            return
        now = self.clock.now
        self._close(tree, "socket_wait", now)
        if wake_ts is not None:
            wait_end = placement[0] if placement is not None else now
            self._add(tree, "runqueue_wait", wake_ts, max(wake_ts, wait_end))
        if placement is not None:
            self._add(tree, "placement", placement[0], now,
                      core=placement[1])
        self._open(tree, "service", now, thread=thread.name)

    def service_end(self, thread, token):
        tree = self._live.get(token)
        if tree is None:
            return
        self._close(tree, "service", self.clock.now)
        self._finalize(tree, complete=True)

    # ------------------------------------------------------------------
    # Views / export
    # ------------------------------------------------------------------
    def trees(self, complete=None):
        """Finished span trees, oldest first.

        ``complete=True`` keeps only trees whose request finished
        service; ``complete=False`` only dropped/aborted ones; ``None``
        returns both.
        """
        if complete is None:
            return list(self._done)
        return [t for t in self._done if t["complete"] is complete]

    @property
    def live(self):
        """Trees still in flight (sampled, not yet finished or dropped)."""
        return len(self._live)

    def __len__(self):
        return len(self._done)

    def to_chrome_trace(self, destination):
        """Write finished trees in the Chrome Trace Event Format.

        The output loads directly in ``chrome://tracing`` and Perfetto:
        one complete-event (``"ph": "X"``) per span, ``ts``/``dur`` in
        simulated microseconds (the format's native unit), ``pid`` 1 and
        one ``tid`` per request id so each request renders as its own
        track.  Decision spans are zero-duration slices carrying their
        outcome/fd/seq in ``args``.  ``destination`` follows the
        :func:`repro.obs.export.open_destination` contract (path or open
        file object); returns the number of trace events written.
        """
        events = []
        for tree in self._done:
            args = {"rid": tree["rid"], "rtype": tree["rtype"],
                    "complete": tree["complete"]}
            if tree["abort_reason"]:
                args["abort_reason"] = tree["abort_reason"]
            events.append({
                "name": "request",
                "ph": "X",
                "ts": tree["start"],
                "dur": max(0.0, tree["end"] - tree["start"]),
                "pid": 1,
                "tid": tree["rid"],
                "args": args,
            })
            for span in tree["spans"]:
                end = span["end"] if span["end"] is not None else tree["end"]
                events.append({
                    "name": span["name"],
                    "ph": "X",
                    "ts": span["start"],
                    "dur": max(0.0, end - span["start"]),
                    "pid": 1,
                    "tid": tree["rid"],
                    "args": span.get("attrs", {}),
                })
        document = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open_destination(destination) as fh:
            json.dump(document, fh, sort_keys=True)
            fh.write("\n")
        return len(events)

    def __repr__(self):
        return (
            f"<SpanTracer every={self.sample_every} sampled={self.sampled} "
            f"done={len(self._done)} live={len(self._live)}>"
        )
