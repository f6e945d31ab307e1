"""The flight recorder: registry metrics sampled over simulated time.

Totals (:mod:`repro.obs.registry`) answer "how much, ever?"; Syrup's
headline results are *dynamics* — Figure 8's mid-run policy switch and
Figure 2's hash-imbalance drops only make sense as metrics **over sim
time**.  A :class:`FlightRecorder` samples a
:class:`~repro.obs.registry.MetricsRegistry` on a fixed simulated-time
interval and keeps, per metric series, a bounded ring of samples:

- **counters** — the per-interval *delta* (turn into a rate with
  :meth:`FlightRecorder.rate_per_s` or read raw deltas),
- **gauges** — the value at sample time,
- **sketches** — the per-interval observation-count delta plus the
  cumulative p50/p99 at sample time (within the DDSketch relative-error
  bound; see :mod:`repro.obs.sketch`).

Determinism contract (same as the rest of :mod:`repro.obs`): sampling
rides the engine's event loop but only *reads* — it draws no randomness,
mutates no simulation state, and, as a
:class:`~repro.sim.timers.PeriodicTimer` whose re-arm rule is
``engine.queued``, re-arms only while other events remain, so the run
still terminates and every simulation output is bit-identical with the
recorder on or off.  (Recorder ticks do advance
``engine.now`` to the final tick instant and count in
``events_dispatched``; no workload-visible quantity depends on either.)

Off is ``None``: a machine built without ``timeseries=`` holds no
recorder (``obs.recorder is None``), like every other tier.  Rendering
lives in :func:`repro.syrupctl.render_timeline` (``syrupctl timeline``).
"""

from collections import deque

from repro.sim.timers import PeriodicTimer

__all__ = ["FlightRecorder", "SeriesSamples"]

DEFAULT_INTERVAL_US = 1_000.0
DEFAULT_CAPACITY = 1_024


class SeriesSamples:
    """One metric's bounded sample ring: ``(ts, value)`` pairs.

    ``value`` is a number for counter deltas and gauges, and a dict
    ``{"count": delta, "p50": ..., "p99": ...}`` for sketches.
    """

    __slots__ = ("key", "kind", "samples")

    def __init__(self, key, kind, capacity):
        self.key = key
        self.kind = kind
        self.samples = deque(maxlen=capacity)

    def times(self):
        return [t for t, _v in self.samples]

    def values(self, field=None):
        """Sample values; ``field`` picks one key out of sketch dicts."""
        if field is None:
            return [v for _t, v in self.samples]
        return [v[field] for _t, v in self.samples]

    def __len__(self):
        return len(self.samples)

    def __repr__(self):
        return (
            f"<SeriesSamples {'/'.join(self.key)} kind={self.kind} "
            f"n={len(self.samples)}>"
        )


class FlightRecorder(PeriodicTimer):
    """Samples a metrics registry every ``interval_us`` of simulated time.

    Arm it with :meth:`arm` (``Machine.run`` does this automatically for
    the machine-owned recorder); each tick samples every registered
    series, then re-arms only while the engine still has other pending
    events, so a drained heap ends the run exactly as before.
    ``engine.queued()`` over-approximates (cancelled events linger until
    popped), costing at most a few empty ticks.
    """

    def __init__(self, registry, engine, interval_us=DEFAULT_INTERVAL_US,
                 capacity=DEFAULT_CAPACITY):
        super().__init__(engine, interval_us, self.sample, engine.queued)
        self.registry = registry
        self.capacity = capacity
        self.samples_taken = 0
        self._series = {}       # key -> SeriesSamples
        self._last_cumulative = {}  # key -> last counter value / count
        #: Callables run with the registry at the start of every
        #: sample(): the queue-state telemetry hook (Machine installs a
        #: probe that reads instantaneous queue depths into its gauges).
        #: Probes must only *read* simulation state — the determinism
        #: contract above extends to them.
        self.probes = []

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self):
        """Take one sample of every registered series, stamped now."""
        for probe in self.probes:
            probe(self.registry)
        now = self.engine.now
        self.samples_taken += 1
        for key, metric in self.registry._series.items():
            kind = metric.kind
            series = self._series.get(key)
            if series is None:
                series = SeriesSamples(key, kind, self.capacity)
                self._series[key] = series
            if kind == "counter":
                last = self._last_cumulative.get(key, 0)
                self._last_cumulative[key] = metric.value
                series.samples.append((now, metric.value - last))
            elif kind == "gauge":
                series.samples.append((now, metric.value))
            else:  # sketch
                last = self._last_cumulative.get(key, 0)
                self._last_cumulative[key] = metric.count
                series.samples.append((now, {
                    "count": metric.count - last,
                    "p50": metric.percentile(50.0),
                    "p99": metric.percentile(99.0),
                }))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def keys(self):
        """All recorded series keys, sorted."""
        return sorted(self._series)

    def series(self, app, scope, name):
        """The :class:`SeriesSamples` at a key, or None."""
        return self._series.get((app, scope, name))

    def points(self, app, scope, name, field=None):
        """``[(ts, value)]`` for one series (empty when unrecorded)."""
        series = self._series.get((app, scope, name))
        if series is None:
            return []
        if field is None:
            return list(series.samples)
        return [(t, v[field]) for t, v in series.samples]

    def rate_per_s(self, app, scope, name):
        """Counter series as ``[(ts, events-per-second)]``."""
        scale = 1e6 / self.interval_us  # us intervals -> per-second
        return [(t, d * scale) for t, d in self.points(app, scope, name)]

    def snapshot(self):
        """JSON-safe dump: one row per series with its sample list."""
        rows = []
        for key in sorted(self._series):
            series = self._series[key]
            rows.append({
                "app": key[0],
                "scope": key[1],
                "metric": key[2],
                "kind": series.kind,
                "interval_us": self.interval_us,
                "samples": [[t, v] for t, v in series.samples],
            })
        return rows

    def __len__(self):
        return len(self._series)

    def __repr__(self):
        return (
            f"<FlightRecorder interval={self.interval_us:g}us "
            f"series={len(self._series)} ticks={self.samples_taken}>"
        )
