"""SLO objectives, error budgets, and multi-window burn-rate alerting.

A sketch (:mod:`repro.obs.sketch`) tells you *what* the tail is; an SLO
says whether that tail is *acceptable* and — through the error budget —
how much slack remains before it is not.  This module implements the
SRE-standard formulation:

- An **objective** is a target fraction of *good* events: a latency SLO
  counts a request good when it completes under ``threshold_us``, an
  availability SLO when it was not dropped.  The **error budget** is
  ``1 - target`` — the tolerated bad fraction.
- The **burn rate** over a trailing window is the observed bad fraction
  divided by the budget: burn 1.0 consumes the budget exactly at the
  sustainable pace, burn 10 exhausts it ten times too fast.
- **Multi-window alerting**: an objective *pages* only when both a
  short and a long trailing window burn above ``page_burn`` (the short
  window makes the alert fast, the long window keeps a transient spike
  from flapping it), and *warns* when both exceed ``warn_burn``.
  States are ``ok`` / ``warn`` / ``page`` (:data:`STATE_CODES`).

:class:`SloTracker` owns a set of objectives, publishes their burn
state into a metrics registry as gauges (so OpenMetrics exports them
and the SignalBus can route them into Maps), and renders through
``syrupctl slo``.  Everything is driven by the simulated clock and only
*reads* it — no randomness, no event scheduling — so a tracker that is
never constructed leaves simulation output bit-identical (the same
off-is-``None`` contract as the rest of :mod:`repro.obs`).
"""

__all__ = [
    "AvailabilitySlo",
    "LatencySlo",
    "STATE_CODES",
    "Slo",
    "SloTracker",
]

#: Alert-state names to numeric gauge codes (exported via OpenMetrics).
STATE_CODES = {"ok": 0, "warn": 1, "page": 2}

DEFAULT_SHORT_WINDOW_US = 50_000.0
DEFAULT_LONG_WINDOW_US = 500_000.0


class Slo:
    """One good/total objective with time-bucketed trailing windows.

    Events land in fixed-width sim-time bins; windowed counts sum the
    bins covering the trailing window, so burn rates over the short and
    long windows are O(bins) reads.  Lifetime totals back the error
    budget.  Subclasses define what "good" means.
    """

    kind = "slo"
    __slots__ = ("name", "clock", "target", "short_window_us",
                 "long_window_us", "page_burn", "warn_burn", "_bin_us",
                 "good_total", "total", "_bins")

    def __init__(self, name, clock, target,
                 short_window_us=DEFAULT_SHORT_WINDOW_US,
                 long_window_us=DEFAULT_LONG_WINDOW_US,
                 page_burn=4.0, warn_burn=1.0):
        if not 0.0 < target < 1.0:
            raise ValueError(
                f"target must be in (0, 1) (an error budget of zero can "
                f"never be met), got {target}"
            )
        if short_window_us <= 0 or long_window_us < short_window_us:
            raise ValueError(
                f"need 0 < short_window_us <= long_window_us, got "
                f"{short_window_us} / {long_window_us}"
            )
        self.name = name
        self.clock = clock
        self.target = target
        self.short_window_us = float(short_window_us)
        self.long_window_us = float(long_window_us)
        self.page_burn = page_burn
        self.warn_burn = warn_burn
        self._bin_us = self.short_window_us / 10.0
        self.good_total = 0
        self.total = 0
        self._bins = {}   # bin index -> [good, total]

    # ------------------------------------------------------------------
    @property
    def budget(self):
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.target

    def record(self, good, n=1):
        """Fold ``n`` events (all good or all bad) into the objective."""
        self.total += n
        if good:
            self.good_total += n
        now = self.clock.now
        index = int(now // self._bin_us)
        bin_ = self._bins.get(index) or self._open_bin(index, now)
        bin_[1] += n
        if good:
            bin_[0] += n

    def _open_bin(self, index, now):
        # Expire only when a bin opens: counts() filters by its own
        # horizon, so a stale bin kept until then is never read.
        horizon = int((now - self.long_window_us) // self._bin_us)
        for stale in [i for i in self._bins if i <= horizon]:
            del self._bins[stale]
        return self._bins.setdefault(index, [0, 0])

    def counts(self, window_us):
        """``(good, total)`` over the trailing ``window_us``."""
        horizon = int((self.clock.now - window_us) // self._bin_us)
        good = total = 0
        for index, (g, t) in self._bins.items():
            if index > horizon:
                good += g
                total += t
        return good, total

    # ------------------------------------------------------------------
    def compliance(self):
        """Lifetime good fraction (1.0 before any event)."""
        return self.good_total / self.total if self.total else 1.0

    def budget_consumed(self):
        """Fraction of the lifetime error budget spent (can exceed 1)."""
        if self.total == 0:
            return 0.0
        bad_frac = 1.0 - self.good_total / self.total
        return bad_frac / self.budget

    def budget_remaining(self):
        return 1.0 - self.budget_consumed()

    def burn_rate(self, window_us=None):
        """Bad fraction over the window divided by the error budget."""
        if window_us is None:
            window_us = self.long_window_us
        good, total = self.counts(window_us)
        if total == 0:
            return 0.0
        return (1.0 - good / total) / self.budget

    def state(self):
        """``ok`` / ``warn`` / ``page`` via multi-window burn rates."""
        short = self.burn_rate(self.short_window_us)
        long_ = self.burn_rate(self.long_window_us)
        if short >= self.page_burn and long_ >= self.page_burn:
            return "page"
        if short >= self.warn_burn and long_ >= self.warn_burn:
            return "warn"
        return "ok"

    def snapshot(self):
        """JSON-safe row (``syrupctl slo``)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "total": self.total,
            "good": self.good_total,
            "compliance": self.compliance(),
            "budget_remaining": self.budget_remaining(),
            "burn_short": self.burn_rate(self.short_window_us),
            "burn_long": self.burn_rate(self.long_window_us),
            "state": self.state(),
        }

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name!r} target={self.target} "
            f"n={self.total} state={self.state()}>"
        )


class LatencySlo(Slo):
    """Latency objective: good iff the request finishes in time.

    ``target`` fraction of requests must complete within
    ``threshold_us`` — "p99 <= 600us" is ``target=0.99,
    threshold_us=600``.
    """

    kind = "latency"
    __slots__ = ("threshold_us",)

    def __init__(self, name, clock, threshold_us, target=0.99, **kwargs):
        super().__init__(name, clock, target, **kwargs)
        if threshold_us <= 0:
            raise ValueError(
                f"threshold_us must be positive, got {threshold_us}"
            )
        self.threshold_us = float(threshold_us)

    def observe(self, latency_us):
        # record(latency_us <= threshold_us), written out
        good = latency_us <= self.threshold_us
        self.total += 1
        if good:
            self.good_total += 1
        now = self.clock.now
        index = int(now // self._bin_us)
        bin_ = self._bins.get(index) or self._open_bin(index, now)
        bin_[1] += 1
        if good:
            bin_[0] += 1


class AvailabilitySlo(Slo):
    """Availability objective: good iff the request was served at all."""

    kind = "availability"
    __slots__ = ()

    def observe(self, ok):
        self.record(bool(ok))


class SloTracker:
    """A set of SLOs with registry publication and operator views.

    ``clock`` is the usual sim-time clock (``.now``).  Objectives are
    created once via :meth:`latency` / :meth:`availability` and then fed
    through :meth:`observe_latency` / :meth:`observe_ok` on the request
    completion path; :meth:`publish` mirrors burn state into registry
    gauges under ``(app="slo", scope=<objective>)`` so the OpenMetrics
    exporter and the SignalBus see it without knowing this class.
    """

    def __init__(self, clock, **defaults):
        self.clock = clock
        self.defaults = defaults     # window/burn kwargs for new SLOs
        self.slos = {}

    # ------------------------------------------------------------------
    def latency(self, name, threshold_us, target=0.99, **kwargs):
        slo = self.slos.get(name)
        if slo is None:
            merged = dict(self.defaults)
            merged.update(kwargs)
            slo = LatencySlo(name, self.clock, threshold_us,
                             target=target, **merged)
            self.slos[name] = slo
        return slo

    def availability(self, name, target=0.999, **kwargs):
        slo = self.slos.get(name)
        if slo is None:
            merged = dict(self.defaults)
            merged.update(kwargs)
            slo = AvailabilitySlo(name, self.clock, target, **merged)
            self.slos[name] = slo
        return slo

    def get(self, name):
        return self.slos.get(name)

    # ------------------------------------------------------------------
    def observe_latency(self, name, latency_us):
        slo = self.slos.get(name)
        if slo is not None:
            slo.observe(latency_us)

    def observe_ok(self, name, ok):
        slo = self.slos.get(name)
        if slo is not None:
            slo.observe(ok)

    # ------------------------------------------------------------------
    def worst_state(self):
        """The most severe state across objectives (``ok`` when empty)."""
        worst = "ok"
        for slo in self.slos.values():
            state = slo.state()
            if STATE_CODES[state] > STATE_CODES[worst]:
                worst = state
        return worst

    def guard(self, names=None, allow="warn"):
        """A zero-arg gate predicate over burn-rate state.

        Returns a callable that is True while every watched objective's
        state is no worse than ``allow`` (``"ok"`` = any warn blocks,
        ``"warn"`` = only a page blocks).  ``names`` limits the watch
        to specific objectives; by default every objective — including
        ones created *after* the guard — is consulted.  This is the SLO
        gate handed to :class:`repro.core.promote.CanaryController`.
        """
        ceiling = STATE_CODES[allow]

        def ok():
            slos = (self.slos.values() if names is None
                    else [s for n, s in self.slos.items() if n in names])
            return all(STATE_CODES[slo.state()] <= ceiling for slo in slos)

        return ok

    def publish(self, registry):
        """Mirror burn state into registry gauges (OpenMetrics-visible)."""
        for name, slo in self.slos.items():
            registry.gauge("slo", name, "burn_short").set(
                slo.burn_rate(slo.short_window_us))
            registry.gauge("slo", name, "burn_long").set(
                slo.burn_rate(slo.long_window_us))
            registry.gauge("slo", name, "budget_remaining").set(
                slo.budget_remaining())
            registry.gauge("slo", name, "state").set(
                STATE_CODES[slo.state()])

    def snapshot(self):
        """JSON-safe rows, sorted by objective name (``syrupctl slo``)."""
        return [self.slos[name].snapshot() for name in sorted(self.slos)]

    def __len__(self):
        return len(self.slos)

    def __repr__(self):
        return f"<SloTracker slos={len(self.slos)} worst={self.worst_state()}>"
