"""Structured event tracing: a bounded ring of scheduling decisions.

Counters (:mod:`repro.obs.registry`) answer "how many?"; the event trace
answers "what happened, in order?".  Instrumented layers emit flat,
JSON-safe records — a *kind*, the owning *app* and *hook/scope* when
known, the simulated timestamp, and free-form fields — into a fixed-size
ring buffer (old events are overwritten, never allocated without bound).

Event kinds emitted by the framework (schema in docs/observability.md):

- ``app_registered`` / ``deploy`` / ``undeploy`` — syrupd control plane
- ``isolation_denial`` / ``verifier_reject`` — rejected requests
- ``decision`` — one hook-site policy invocation (outcome + value)
- ``policy_error`` — a thread policy raised / violated its enclave
- ``fault_injected`` — the fault injector fired one planned fault
  (:mod:`repro.faults`); ``runtime_fault`` — a deployed program raised
  a :class:`repro.ebpf.errors.VmFault` at its hook site.
- ``quarantine`` / ``rollback`` / ``redeploy`` — policy lifecycle
  transitions driven by syrupd (docs/robustness.md).
- ``agent_crash`` / ``watchdog_restart`` / ``enclave_fallback`` — the
  ghOSt-agent watchdog: crash, bounded-backoff restart, and the final
  hand-back of enclave threads to a kernel scheduler.
- ``offload_fallback`` / ``offload_restore`` — an XDP_OFFLOAD program
  migrating to the XDP_SKB host path when the NIC fails, and back.

The exporter writes JSON lines (one event per line), the interchange
format everything downstream — jq, pandas, perfetto-style converters —
already speaks.  Like every exporter in the tree it takes a
*destination* — a path or an open file object — via
:func:`repro.obs.export.open_destination`.  Off is ``None``: a machine
built without ``metrics=True`` holds no trace (``obs.events is None``)
and its callers emit nothing.
"""

import json
from collections import deque

from repro.obs.export import open_destination
from repro.obs.registry import ZERO_CLOCK

__all__ = ["EventTrace"]


class EventTrace:
    """Bounded ring buffer of structured events with a JSONL exporter."""

    def __init__(self, clock=None, capacity=4096):
        self.clock = clock if clock is not None else ZERO_CLOCK
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self.emitted = 0

    # ------------------------------------------------------------------
    def emit(self, kind, app=None, hook=None, **fields):
        """Record one event stamped with the current simulated time."""
        self.emitted += 1
        event = {"ts": self.clock.now, "kind": kind}
        if app is not None:
            event["app"] = app
        if hook is not None:
            event["hook"] = hook
        if fields:
            event.update(fields)
        self._ring.append(event)
        return event

    @property
    def dropped(self):
        """Events overwritten because the ring was full."""
        return self.emitted - len(self._ring)

    # ------------------------------------------------------------------
    def events(self, kind=None, app=None, since=None):
        """Buffered events, oldest first, optionally filtered.

        ``since`` keeps only events stamped at or after that simulated
        time (microseconds).
        """
        out = []
        for event in self._ring:
            if kind is not None and event["kind"] != kind:
                continue
            if app is not None and event.get("app") != app:
                continue
            if since is not None and event["ts"] < since:
                continue
            out.append(event)
        return out

    def tail(self, n=20):
        """The most recent ``n`` buffered events, oldest first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def clear(self):
        self._ring.clear()

    def __len__(self):
        return len(self._ring)

    # ------------------------------------------------------------------
    def to_jsonl(self, destination):
        """Write buffered events as JSON lines; returns the event count.

        ``destination`` is a path (opened and closed here) or an open
        file-like object (written to, left open) — the
        :func:`repro.obs.export.open_destination` contract.
        """
        with open_destination(destination) as fh:
            n = 0
            for event in self._ring:
                fh.write(json.dumps(event, sort_keys=True))
                fh.write("\n")
                n += 1
            return n
