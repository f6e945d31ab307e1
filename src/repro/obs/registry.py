"""Metric primitives keyed by ``(app, scope, metric)``.

Scheduler evaluation lives or dies on cheap, always-on per-decision
counters (RackSched, Eiffel): "is my policy even running?" should be a
counter read, not a debugger session.  This module provides three
metric kinds —

- :class:`Counter` — monotonically increasing totals (schedule() calls,
  PASS/DROP decisions, map operations, verifier rejections),
- :class:`Gauge` — last-written values (program sizes, JIT code size),
- :class:`~repro.obs.sketch.Sketch` — every distribution (map op
  latencies, qdisc ranks, service times): a mergeable DDSketch with a
  stated relative error bound (``registry.sketch(...)``; see
  :mod:`repro.obs.sketch`) —

all registered in a :class:`MetricsRegistry` under a three-part key:
the owning **app**, a **scope** (a hook name like ``socket_select``, or a
subsystem like ``maps`` / ``syrupd`` / ``thread_sched``), and the metric
**name**.  Every update stamps the metric with the *simulated* clock, so
"when did this last move?" is answerable in sim time.

Off is ``None``: a machine built without ``metrics=True`` holds no
registry (``obs.registry is None``), so every metric group it would
resolve is ``None`` too.  Each caller tests ``is not None`` once, where
it resolves or uses its metrics, and a dark machine makes no call into
this module.  Simulation results are bit-identical either way (no RNG
draws, no event scheduling, no behavioral change).
"""

from types import SimpleNamespace

from repro.obs.sketch import Sketch

__all__ = [
    "CardinalityError",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "ZERO_CLOCK",
]

#: The clock of a tier (registry, events, spans) constructed without
#: one: simulated time stands still.
ZERO_CLOCK = SimpleNamespace(now=0.0)


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("key", "value", "updated_at", "_clock")

    def __init__(self, key, clock):
        self.key = key
        self.value = 0
        self.updated_at = None
        self._clock = clock

    def inc(self, n=1):
        self.value += n
        self.updated_at = self._clock.now

    def __repr__(self):
        return f"<Counter {'/'.join(self.key)}={self.value}>"


class Gauge:
    """A last-written value."""

    kind = "gauge"
    __slots__ = ("key", "value", "updated_at", "_clock")

    def __init__(self, key, clock):
        self.key = key
        self.value = 0
        self.updated_at = None
        self._clock = clock

    def set(self, value):
        self.value = value
        self.updated_at = self._clock.now

    def __repr__(self):
        return f"<Gauge {'/'.join(self.key)}={self.value}>"


class CardinalityError(RuntimeError):
    """The registry refused to create yet another metric series.

    Unbounded label cardinality is the classic way always-on metrics
    stop being cheap; the cap turns a leak (e.g. a per-request label)
    into a loud error instead of a slow death.
    """


class MetricsRegistry:
    """Counters/gauges/sketches keyed by ``(app, scope, metric)``.

    ``clock`` is any object whose ``now`` attribute is the current
    simulated time in microseconds — the machine's
    :class:`~repro.sim.engine.Engine` — read, never called; metric
    updates are stamped with it.  Every tier in :mod:`repro.obs` takes
    its clock under this one contract.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "sketch": Sketch}

    def __init__(self, clock=None, max_series=4096):
        self.clock = clock if clock is not None else ZERO_CLOCK
        self.max_series = max_series
        self._series = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, kind, app, scope, name):
        key = (app, scope, name)
        metric = self._series.get(key)
        if metric is not None:
            if metric.kind != kind:
                raise TypeError(
                    f"metric {key} already registered as {metric.kind}, "
                    f"requested {kind}"
                )
            return metric
        if len(self._series) >= self.max_series:
            raise CardinalityError(
                f"metric series limit ({self.max_series}) reached "
                f"registering {key}; a label is probably unbounded"
            )
        metric = self._KINDS[kind](key, self.clock)
        self._series[key] = metric
        return metric

    def counter(self, app, scope, name):
        return self._get_or_create("counter", app, scope, name)

    def gauge(self, app, scope, name):
        return self._get_or_create("gauge", app, scope, name)

    def sketch(self, app, scope, name):
        """A mergeable streaming quantile sketch (see repro.obs.sketch)."""
        return self._get_or_create("sketch", app, scope, name)

    def counters(self, app, scope, names):
        """``{name: Counter}`` for a named group, created in ``names``
        order."""
        return {name: self._get_or_create("counter", app, scope, name)
                for name in names}

    # ------------------------------------------------------------------
    def get(self, app, scope, name):
        """The metric at a key, or None (never creates)."""
        return self._series.get((app, scope, name))

    def value(self, app, scope, name, default=None):
        """Counter/gauge value (sketches: observation count) at a key."""
        metric = self._series.get((app, scope, name))
        if metric is None:
            return default
        if metric.kind == "sketch":
            return metric.count
        return metric.value

    def values_for(self, app, scope):
        """``{name: value}`` for every metric under (app, scope)."""
        out = {}
        for (m_app, m_scope, name), metric in self._series.items():
            if m_app == app and m_scope == scope:
                out[name] = (
                    metric.summary()
                    if metric.kind == "sketch"
                    else metric.value
                )
        return out

    def series(self):
        """All registered keys, sorted."""
        return sorted(self._series)

    def snapshot(self):
        """One plain-dict row per series, sorted by key (JSON-safe)."""
        rows = []
        for key in sorted(self._series):
            metric = self._series[key]
            row = {
                "app": key[0],
                "scope": key[1],
                "metric": key[2],
                "kind": metric.kind,
                "updated_at": metric.updated_at,
            }
            if metric.kind == "sketch":
                row.update(metric.summary())
            else:
                row["value"] = metric.value
            rows.append(row)
        return rows

    def __len__(self):
        return len(self._series)
