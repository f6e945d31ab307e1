"""Unified observability: per-hook metrics + structured event tracing.

The reproduction's answer to "what is my policy actually doing?".  Two
complementary primitives, both stamped with *simulated* time:

- a :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges and
  histograms keyed by ``(app, scope, metric)`` — schedule() invocations,
  PASS/DROP/steer outcomes, map operation totals, ghOSt agent churn,
  verifier rejections — and
- an :class:`~repro.obs.events.EventTrace`, a bounded ring of structured
  decision events with a JSON-lines exporter.

Both hang off an :class:`Observability` handle created by
:class:`repro.machine.Machine`.  Observability is **off by default**:
``Machine(metrics=True)`` swaps the null implementations for live ones.
Instrumented code paths hold metric/trace objects directly, so the
disabled mode costs a no-op method call at most and changes no simulation
behavior — benchmark results are bit-identical with observability off.

A second tier builds on the registry (all opt-in, same null-singleton
discipline): :class:`repro.obs.timeseries.FlightRecorder` samples the
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
datapath component at construction, each seam method resolved once to
a no-op, one tier's bound method, or both tiers in turn.  With neither
tier live the probe is ``None`` and the datapath makes no seam call.

Operator surface: ``syrupctl stats`` / :func:`repro.syrupctl.render_stats`
renders the registry, ``syrupctl timeline`` the recorder;
``docs/observability.md`` is the metric catalogue and event schema.
"""

from repro.obs.accounting import (
    NULL_ACCOUNTING,
    NullTenantAccountant,
    TenantAccountant,
    TenantLedger,
)
from repro.obs.events import NULL_EVENTS, EventTrace, NullEventTrace
from repro.obs.interference import (
    BlameMatrix,
    NoisyNeighborDetector,
    TenantShedController,
)
from repro.obs.export import open_destination, to_openmetrics, write_openmetrics
from repro.obs.probe import Probe
from repro.obs.registry import (
    NULL_METRIC,
    NULL_REGISTRY,
    CardinalityError,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetric,
    NullRegistry,
)
from repro.obs.spans import NULL_SPANS, NullSpanTracer, SpanTracer
from repro.obs.timeseries import NULL_RECORDER, FlightRecorder, NullFlightRecorder

__all__ = [
    "DISABLED",
    "BlameMatrix",
    "CardinalityError",
    "Counter",
    "EventTrace",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_ACCOUNTING",
    "NULL_EVENTS",
    "NULL_METRIC",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "NULL_SPANS",
    "NoisyNeighborDetector",
    "NullEventTrace",
    "NullFlightRecorder",
    "NullMetric",
    "NullRegistry",
    "NullSpanTracer",
    "NullTenantAccountant",
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
    """A machine's metrics registry + event trace, or their null twins.

    ``recorder`` holds the time-series tier: :data:`NULL_RECORDER` unless
    the owner installs a live :class:`FlightRecorder` (see
    ``Machine(timeseries=...)``); it needs the engine, so construction
    stays with the machine.  ``spans`` is the causal span tracer
    (:mod:`repro.obs.spans`): :data:`NULL_SPANS` unless constructed with
    ``spans=N`` (sample every Nth request; ``Machine(spans=...)``) —
    independent of ``enabled``, since the tracer needs no registry.
    ``acct`` is the per-tenant cost accountant
    (:mod:`repro.obs.accounting`): :data:`NULL_ACCOUNTING` unless
    constructed with ``accounting=True`` (``Machine(accounting=True)``)
    — also registry-independent, same null-twin discipline.
    ``spans`` and ``acct`` are the *read* side; datapath components
    write through ``probe`` (:mod:`repro.obs.probe`), built here once
    over whichever of the two is live and never swapped afterwards —
    ``None`` when neither is, so a dark datapath makes no seam call.
    """

    __slots__ = ("enabled", "registry", "events", "recorder", "spans",
                 "acct", "probe")

    def __init__(self, clock=None, enabled=False, event_capacity=4096,
                 max_series=4096, spans=0, spans_capacity=4096,
                 accounting=False):
        self.enabled = enabled
        self.recorder = NULL_RECORDER
        if enabled:
            self.registry = MetricsRegistry(clock=clock, max_series=max_series)
            self.events = EventTrace(clock=clock, capacity=event_capacity)
        else:
            self.registry = NULL_REGISTRY
            self.events = NULL_EVENTS
        if spans:
            sample_every = 1 if spans is True else int(spans)
            self.spans = SpanTracer(clock=clock, sample_every=sample_every,
                                    capacity=spans_capacity)
        else:
            self.spans = NULL_SPANS
        if accounting:
            self.acct = TenantAccountant(clock=clock)
        else:
            self.acct = NULL_ACCOUNTING
        # A null twin defines no seam: with one tier live the other's
        # seams resolve to no-ops; with none there is no probe at all.
        self.probe = (Probe(self.spans, self.acct) if spans or accounting
                      else None)

    def snapshot(self):
        """Registry snapshot rows (see MetricsRegistry.snapshot)."""
        return self.registry.snapshot()

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"<Observability {state} series={len(self.registry)}>"


#: Shared disabled instance for call sites given no machine-level handle.
DISABLED = Observability(enabled=False)
