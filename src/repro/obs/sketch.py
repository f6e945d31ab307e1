"""Streaming quantile sketches and windowed estimators.

The recorder tier (PR 2) answers "what happened?"; closing the loop
(ROADMAP: adaptive scheduling) needs *online* statistics a controller
can read every few milliseconds of sim time without the memory cost of
retaining per-request samples.  Three primitives live here:

- :class:`DDSketch` — a relative-error streaming quantile sketch in the
  style of DDSketch (Masson et al., VLDB '19): logarithmic buckets with
  ratio ``gamma = (1+alpha)/(1-alpha)`` guarantee every quantile
  estimate ``est`` satisfies ``|est - true| <= alpha * true``, and two
  sketches over disjoint streams **merge** by bucket-count addition into
  exactly the sketch of the concatenated stream.  That mergeability is
  what lets per-machine latency sketches roll up through the PR-6 sync
  bus to a rack-level view.
- :class:`WindowedRate` — events-per-second over a sliding sim-time
  window, bucketed so old observations age out in O(1).
- :class:`Ewma` — an exponentially weighted moving average with a
  sim-time half-life (decay follows the *clock*, not the update count,
  so bursty streams do not skew the smoothing).

:class:`Sketch` adapts :class:`DDSketch` to the metrics-registry
contract (``key`` / ``kind`` / ``observe`` / ``updated_at``); the
registry exposes it via ``registry.sketch(app, scope, name)`` and the
flight recorder and OpenMetrics exporter understand the kind natively.
Like every obs primitive, it is off as ``None``: a dark machine has no
registry, so no sketch object is ever allocated on a dark datapath.
"""

import math

__all__ = [
    "DDSketch",
    "DEFAULT_ALPHA",
    "Ewma",
    "Sketch",
    "WindowedRate",
]

#: Default relative-error bound for registry-created sketches: a
#: reported p99 of 1000us is guaranteed within [990, 1010]us of truth.
DEFAULT_ALPHA = 0.01


class DDSketch:
    """Mergeable relative-error quantile sketch (log-bucketed).

    Values ``<= 0`` land in a dedicated zero bucket (latencies and queue
    depths are non-negative; an exact-zero stream must still report 0).
    Positive values map to bucket ``ceil(log_gamma(v))`` and are
    reported back as the bucket midpoint ``2*gamma^i / (gamma+1)``,
    which is within ``alpha`` relative error of every value in the
    bucket.  Quantiles use the nearest-rank convention so tests can
    compare directly against a sorted-sample oracle.
    """

    __slots__ = ("alpha", "gamma", "_multiplier", "count", "sum",
                 "vmin", "vmax", "zero_count", "buckets")

    def __init__(self, alpha=DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._multiplier = 1.0 / math.log(self.gamma)
        self.count = 0
        self.sum = 0.0
        self.vmin = None
        self.vmax = None
        self.zero_count = 0
        self.buckets = {}   # bucket index -> count

    # ------------------------------------------------------------------
    def add(self, value, n=1):
        """Fold ``n`` observations of ``value`` into the sketch."""
        self.count += n
        self.sum += value * n
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        if value <= 0.0:
            self.zero_count += n
            return
        index = math.ceil(math.log(value) * self._multiplier)
        self.buckets[index] = self.buckets.get(index, 0) + n

    def quantile(self, p):
        """The value at quantile ``p`` in [0, 1] (nearest-rank)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {p}")
        if self.count == 0:
            return 0.0
        # Nearest-rank: the ceil(p*n)-th smallest value (1-based), with
        # the rank floored at 1 so p=0 reads the minimum.
        rank = max(1, math.ceil(p * self.count))
        if rank <= self.zero_count:
            return min(0.0, self.vmax)
        seen = self.zero_count
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                estimate = (2.0 * self.gamma ** index) / (self.gamma + 1.0)
                # Exact extremes are tracked; never report beyond them.
                return min(max(estimate, self.vmin), self.vmax)
        return self.vmax  # pragma: no cover - seen always reaches count

    def percentile(self, q):
        """The value at percentile ``q`` in [0, 100]."""
        return self.quantile(q / 100.0)

    # ------------------------------------------------------------------
    def merge(self, other):
        """Fold ``other`` into this sketch (bucket-count addition).

        Merging sketches over disjoint streams yields the sketch of the
        concatenated stream exactly; both must share ``alpha``.
        """
        if not isinstance(other, DDSketch):
            raise TypeError(f"can only merge DDSketch, got {type(other)!r}")
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})"
            )
        self.count += other.count
        self.sum += other.sum
        if other.vmin is not None and (self.vmin is None
                                       or other.vmin < self.vmin):
            self.vmin = other.vmin
        if other.vmax is not None and (self.vmax is None
                                       or other.vmax > self.vmax):
            self.vmax = other.vmax
        self.zero_count += other.zero_count
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        return self

    # ------------------------------------------------------------------
    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def summary(self):
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "min": self.vmin if self.vmin is not None else 0.0,
            "max": self.vmax if self.vmax is not None else 0.0,
        }

    def __len__(self):
        return len(self.buckets) + (1 if self.zero_count else 0)

    def __repr__(self):
        return (
            f"<DDSketch alpha={self.alpha:g} n={self.count} "
            f"buckets={len(self.buckets)}>"
        )


class Sketch(DDSketch):
    """A :class:`DDSketch` wearing the metrics-registry interface.

    Registered under kind ``"sketch"``; the flight recorder samples its
    p50/p99 per tick and the OpenMetrics exporter emits it as a
    ``summary`` family with ``quantile`` labels.
    """

    kind = "sketch"
    __slots__ = ("key", "updated_at", "_clock")

    def __init__(self, key, clock, alpha=DEFAULT_ALPHA):
        super().__init__(alpha=alpha)
        self.key = key
        self.updated_at = None
        self._clock = clock

    def observe(self, value):
        # DDSketch.add(value), written out
        self.count += 1
        self.sum += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        if value <= 0.0:
            self.zero_count += 1
        else:
            index = math.ceil(math.log(value) * self._multiplier)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        self.updated_at = self._clock.now

    def __repr__(self):
        return f"<Sketch {'/'.join(self.key)} n={self.count}>"


class WindowedRate:
    """Events-per-second over a sliding sim-time window.

    Observations land in ``buckets`` fixed-width time bins; bins older
    than the window are discarded lazily on the next read or write, so
    the structure is O(buckets) regardless of event rate.
    """

    __slots__ = ("clock", "window_us", "_width", "_bins")

    def __init__(self, clock, window_us=100_000.0, buckets=20):
        if window_us <= 0:
            raise ValueError(f"window_us must be positive, got {window_us}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.clock = clock
        self.window_us = float(window_us)
        self._width = self.window_us / buckets
        self._bins = {}   # bin index -> count

    def _evict(self, now):
        horizon = int((now - self.window_us) // self._width)
        for index in [i for i in self._bins if i <= horizon]:
            del self._bins[index]

    def observe(self, n=1):
        now = self.clock.now
        self._evict(now)
        index = int(now // self._width)
        self._bins[index] = self._bins.get(index, 0) + n

    def events_in_window(self):
        self._evict(self.clock.now)
        return sum(self._bins.values())

    def rate_per_s(self):
        """Events per second over the (elapsed-clamped) window."""
        now = self.clock.now
        self._evict(now)
        span_us = min(self.window_us, now) if now > 0 else self.window_us
        if span_us <= 0:
            return 0.0
        return sum(self._bins.values()) * 1e6 / span_us

    def __repr__(self):
        return (
            f"<WindowedRate window={self.window_us:g}us "
            f"events={sum(self._bins.values())}>"
        )


class Ewma:
    """Exponentially weighted moving average with a sim-time half-life.

    Decay is driven by elapsed *clock* time between updates, so the
    smoothing constant is independent of the observation rate: after one
    half-life without updates an old value contributes half its weight.
    """

    __slots__ = ("clock", "halflife_us", "value", "_last_at")

    def __init__(self, clock, halflife_us=50_000.0):
        if halflife_us <= 0:
            raise ValueError(
                f"halflife_us must be positive, got {halflife_us}"
            )
        self.clock = clock
        self.halflife_us = float(halflife_us)
        self.value = None
        self._last_at = None

    def update(self, sample):
        now = self.clock.now
        if self.value is None:
            self.value = float(sample)
        else:
            dt = max(0.0, now - self._last_at)
            decay = 0.5 ** (dt / self.halflife_us)
            self.value = decay * self.value + (1.0 - decay) * float(sample)
        self._last_at = now
        return self.value

    def read(self, default=0.0):
        return self.value if self.value is not None else default

    def __repr__(self):
        return f"<Ewma halflife={self.halflife_us:g}us value={self.value}>"
