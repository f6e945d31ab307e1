"""Latency recording and the tree's one set of latency statistics.

The paper reports client-observed tail latency (99% for RocksDB, 99.9% for
MICA).  One rule says which estimator a number comes from: anything a figure
or table prints is exact — :class:`LatencyRecorder` keeps every sample after
a warmup cutoff (10^4–10^5 per point); anything a controller reads mid-run,
and every distribution the metrics registry holds, is a
:class:`repro.obs.sketch.DDSketch` quantile (bounded memory, relative
error; the registry's kind is :class:`repro.obs.sketch.Sketch`);
:func:`nearest_rank` is only for the cohort edges of
:func:`repro.obs.tail.critical_path`, which must be samples.

:func:`percentile` and :func:`mean` equal NumPy's ``percentile`` (default
linear method) and ``mean`` on float64 in every bit (``tests/test_stats.py``
holds them to it), so the run time needs only the standard library.
"""

from math import isnan

__all__ = ["LatencyRecorder", "mean", "nearest_rank", "percentile"]

NAN = float("nan")


def percentile(ordered, q):
    """Linearly interpolated ``q``-th percentile (0 ≤ q ≤ 100) of an ascending
    list; NaN if it is empty or ends in a NaN (where NumPy sorts them)."""
    fraction = q / 100.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = len(ordered)
    if not n or ordered[-1] != ordered[-1]:
        return NAN
    virtual = (n - 1) * fraction
    if virtual >= n - 1:  # NumPy clamps both neighbours to the last element
        lo = hi = -1
    else:
        lo = int(virtual)
        hi = lo + 1
    a, b, t = ordered[lo], ordered[hi], virtual - lo
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1.0 - t)


def _pairwise_sum(a):
    """Sum floats in the order of NumPy's pairwise ``add.reduce``."""
    n = len(a)
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    total, rest = 0.0, a
    if n >= 8:
        stop = n - n % 8
        lanes = a[:8]  # eight accumulators, stepped eight samples at a time
        for i in range(8, stop, 8):
            lanes = [lane + x for lane, x in zip(lanes, a[i:i + 8])]
        r0, r1, r2, r3, r4, r5, r6, r7 = lanes
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        rest = a[stop:]
    for value in rest:
        total += value
    return total


def mean(samples):
    """Arithmetic mean of a list of floats (NaN if empty or any is NaN)."""
    if not samples:
        return NAN
    return (0.0 + _pairwise_sum(samples)) / len(samples)


def nearest_rank(ordered, q):
    """The ``ceil(n·q/100)``-th smallest of an ascending list (0 < q ≤ 100):
    always one of the samples; NaN if the list is empty."""
    if not ordered:
        return NAN
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


class LatencyRecorder:
    """Collects latency samples (microseconds), optionally split by a tag.

    Samples recorded before ``warmup_until`` (simulated time) are discarded,
    matching the paper's practice of measuring at steady state.
    """

    def __init__(self, warmup_until=0.0):
        self.warmup_until = warmup_until
        self._samples = []
        self._by_tag = {}
        self._ordered = {}

    def record(self, now, latency, tag=None):
        """Record one sample observed at simulated time ``now``."""
        if now < self.warmup_until:
            return
        self._samples.append(latency)
        if tag is not None:
            bucket = self._by_tag.get(tag)
            if bucket is None:
                bucket = self._by_tag[tag] = []
            bucket.append(latency)

    # ------------------------------------------------------------------
    @property
    def count(self):
        return len(self._samples)

    def tags(self):
        return sorted(self._by_tag)

    def _select(self, tag):
        if tag is None:
            return self._samples
        return self._by_tag.get(tag, [])

    def _sorted(self, tag):
        """One cached sort per sample list (append-only: valid while the
        length is unchanged), NaNs moved last the way NumPy sorts them."""
        samples = self._select(tag)
        ordered = self._ordered.get(tag)
        if ordered is None or len(ordered) != len(samples):
            ordered = self._ordered[tag] = sorted(samples)
            ordered.sort(key=isnan)  # sorted() alone is undefined around a NaN
        return ordered

    def percentile(self, q, tag=None):
        """Return the ``q``-th percentile (e.g. 99.0), or NaN if empty."""
        return percentile(self._sorted(tag), q)

    def p99(self, tag=None):
        return self.percentile(99.0, tag)

    def p999(self, tag=None):
        return self.percentile(99.9, tag)

    def p50(self, tag=None):
        return self.percentile(50.0, tag)

    def mean(self, tag=None):
        return mean(self._select(tag))

    def max(self, tag=None):
        samples = self._select(tag)
        if not samples:
            return NAN
        return float(max(samples))

    def summary(self, tag=None):
        """Dict of the standard statistics for one tag (or all samples)."""
        return {
            "count": len(self._select(tag)),
            "mean": self.mean(tag),
            "p50": self.p50(tag),
            "p99": self.p99(tag),
            "p999": self.p999(tag),
            "max": self.max(tag),
        }
