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
  happens at a first :meth:`repro.obs.probe.Probe.switch_steer` instead
  of the NIC.

**Head sampling is deterministic**: every ``sample_every``-th
request-bearing packet at NIC arrival is traced — a counter, no RNG.
The tracer obeys the tree-wide determinism contract: it draws no
randomness, schedules no engine events, and mutates no simulation
state, so every simulation result is bit-identical with spans on or
off (``tests/test_spans.py`` locks this with paired runs).  This
module is the read side: the datapath writes through
:class:`repro.obs.probe.Probe`, which builds each tree on the request's
flight record and files it here when it finishes.  Off is ``None``: a
machine built without ``spans=`` holds no tracer (``obs.spans is None``).

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

__all__ = ["SpanTracer"]

DEFAULT_CAPACITY = 4096


class SpanTracer:
    """Cross-layer span trees for deterministically head-sampled requests:
    the counters and finished trees that :class:`~repro.obs.probe.Probe`
    writes."""

    def __init__(self, sample_every=1, capacity=DEFAULT_CAPACITY):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = int(sample_every)
        self.capacity = capacity
        self.seen = 0            # request-bearing packets observed at the NIC
        self.sampled = 0         # trees started
        self.completed_count = 0
        self.aborted_count = 0
        self._done = deque(maxlen=capacity)

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
        return self.sampled - self.completed_count - self.aborted_count

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
            f"done={len(self._done)} live={self.live}>"
        )
