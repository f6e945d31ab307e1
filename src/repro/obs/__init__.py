"""Unified observability: per-hook metrics + structured event tracing.

The reproduction's answer to "what is my policy actually doing?".  Two
complementary primitives, both stamped with *simulated* time:

- a :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges and
  sketches keyed by ``(app, scope, metric)`` — schedule() invocations,
  PASS/DROP/steer outcomes, map operation totals, ghOSt agent churn,
  verifier rejections — and
- an :class:`~repro.obs.events.EventTrace`, a bounded ring of structured
  decision events with a JSON-lines exporter.

Both hang off an :class:`Observability` handle created by
:class:`repro.machine.Machine`.  Observability is **off by default**,
and off is ``None``: ``Machine(metrics=True)`` builds the registry and
the trace, a dark machine holds ``None`` in both slots, and every
caller tests ``is not None`` first.  A dark machine therefore makes no
call into this package and changes no simulation behavior — benchmark
results are bit-identical with observability off.

A second tier builds on the registry (all opt-in, each ``None`` when
off): :class:`repro.obs.timeseries.FlightRecorder` samples the
registry over *sim time* into bounded ring-buffered series (the
``Observability.recorder`` slot; ``Machine(metrics=True,
timeseries=...)``) and :mod:`repro.obs.export` renders registry
snapshots as OpenMetrics text.

A third tier is *causal*: :mod:`repro.obs.spans` follows head-sampled
requests across every layer (``Machine(spans=N)``, the
``Observability.spans`` slot) and :mod:`repro.obs.tail` turns the
resulting span trees into a p50-vs-p99 critical-path attribution
(``syrupctl spans`` / ``syrupctl tail``).  A fourth bills per tenant:
:mod:`repro.obs.accounting` (``Machine(accounting=True)``, the
``Observability.acct`` slot).

Spans and accounting are *written* through one seam:
``Observability.probe`` (:mod:`repro.obs.probe`), handed to every
datapath component at construction.  Each seam is one method of
:class:`~repro.obs.probe.Probe` that writes into whichever of the two
tiers is live, and a request carries its state for both on its own
flight record (``request.flight``).  With neither tier live the probe
is ``None`` and the datapath makes no seam call.

Operator surface: ``syrupctl stats`` / :func:`repro.syrupctl.render_stats`
renders the registry, ``syrupctl timeline`` the recorder;
``docs/observability.md`` is the metric catalogue and event schema.
"""

from repro.obs.accounting import TenantAccountant, TenantLedger
from repro.obs.events import EventTrace
from repro.obs.interference import (
    BlameMatrix,
    NoisyNeighborDetector,
    TenantShedController,
)
from repro.obs.export import open_destination, to_openmetrics, write_openmetrics
from repro.obs.probe import Probe
from repro.obs.registry import (
    CardinalityError,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import FlightRecorder

__all__ = [
    "BlameMatrix",
    "CardinalityError",
    "Counter",
    "EventTrace",
    "FlightRecorder",
    "Gauge",
    "MetricsRegistry",
    "NoisyNeighborDetector",
    "Observability",
    "Probe",
    "SpanTracer",
    "TenantAccountant",
    "TenantLedger",
    "TenantShedController",
    "open_destination",
    "to_openmetrics",
    "write_openmetrics",
]


class Observability:
    """A machine's telemetry tiers; a tier that is off is ``None``.

    ``registry`` and ``events`` are live when constructed with
    ``enabled=True`` (``Machine(metrics=True)``).  ``recorder`` holds the
    time-series tier, installed by the owner (see
    ``Machine(timeseries=...)``) since it needs the engine.  ``spans`` is
    the causal span tracer (:mod:`repro.obs.spans`), live when
    constructed with ``spans=N`` (sample every Nth request;
    ``Machine(spans=...)``) and independent of ``enabled``, since the
    tracer needs no registry.  ``acct`` is the per-tenant cost accountant
    (:mod:`repro.obs.accounting`), live with ``accounting=True``.
    ``spans`` and ``acct`` are the *read* side; datapath components
    write through ``probe`` (:mod:`repro.obs.probe`), built here once
    over whichever of the two is live and never swapped afterwards.
    Every caller tests a tier ``is not None`` before it uses it, so a
    dark machine makes no call into :mod:`repro.obs`.
    """

    __slots__ = ("registry", "events", "recorder", "spans", "acct", "probe")

    def __init__(self, clock=None, enabled=False, event_capacity=4096,
                 max_series=4096, spans=0, spans_capacity=4096,
                 accounting=False):
        self.registry = self.events = self.recorder = None
        self.spans = self.acct = self.probe = None
        if enabled:
            self.registry = MetricsRegistry(clock=clock, max_series=max_series)
            self.events = EventTrace(clock=clock, capacity=event_capacity)
        if spans:
            sample_every = 1 if spans is True else int(spans)
            self.spans = SpanTracer(sample_every=sample_every,
                                    capacity=spans_capacity)
        if accounting:
            self.acct = TenantAccountant()
        if spans or accounting:
            self.probe = Probe(clock, self.spans, self.acct)

    def snapshot(self):
        """Registry snapshot rows (see MetricsRegistry.snapshot); [] dark."""
        registry = self.registry
        return [] if registry is None else registry.snapshot()

    def __repr__(self):
        registry = self.registry
        if registry is None:
            return "<Observability disabled series=0>"
        return f"<Observability enabled series={len(registry)}>"
