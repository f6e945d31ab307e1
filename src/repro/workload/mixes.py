"""Request mixes matching the paper's workload scenarios.

Service times are the calibration targets from §5.1.2/§5.2: GETs take
10-12 us, SCANs "around 700 us" (we draw uniform(650, 750)).  MICA requests
carry no service time here — the MICA server derives per-request CPU costs
from its own cost model (data movement is what Figure 9 measures).
"""

import math

from repro.workload.requests import GET, PUT, SCAN

__all__ = [
    "BoundedPareto",
    "GET_ONLY",
    "GET_PARETO",
    "GET_SCAN_50_50",
    "GET_SCAN_995_005",
    "MICA_50_50",
    "MICA_95_5",
    "RequestMix",
]


class BoundedPareto:
    """Heavy-tailed service times: Pareto(alpha) truncated to [L, H].

    Drawn by inverse CDF from a single uniform variate —
    ``x = (L^-a - u*(L^-a - H^-a))^(-1/a)`` — so a mix component swaps
    from uniform to bounded-Pareto without changing the number of RNG
    draws per request (determinism tests rely on that).  The bounded
    tail keeps capacity planning honest: ``mean()`` is closed-form, and
    no single request exceeds ``high_us``.
    """

    __slots__ = ("alpha", "low_us", "high_us")

    def __init__(self, alpha, low_us, high_us):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 < low_us < high_us:
            raise ValueError("need 0 < low_us < high_us")
        self.alpha = float(alpha)
        self.low_us = float(low_us)
        self.high_us = float(high_us)

    def sample(self, rng):
        u = rng.random()
        la = self.low_us ** -self.alpha
        ha = self.high_us ** -self.alpha
        return (la - u * (la - ha)) ** (-1.0 / self.alpha)

    def mean(self):
        a, low, high = self.alpha, self.low_us, self.high_us
        norm = 1.0 - (low / high) ** a
        if a == 1.0:
            return low / norm * math.log(high / low)
        return (a * low ** a / norm) * (
            (low ** (1.0 - a) - high ** (1.0 - a)) / (a - 1.0)
        )

    def __repr__(self):
        return (
            f"<BoundedPareto a={self.alpha:g} "
            f"[{self.low_us:g}, {self.high_us:g}]us>"
        )


class RequestMix:
    """Weighted request types with per-type service distributions.

    ``components`` is a list of ``(rtype, weight, dist)`` where ``dist``
    is either a ``(low_us, high_us)`` uniform range or an object with
    ``sample(rng) -> us`` and ``mean() -> us`` (e.g.
    :class:`BoundedPareto`).
    """

    def __init__(self, name, components):
        if not components:
            raise ValueError("mix needs at least one component")
        total = sum(w for _, w, _ in components)
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.name = name
        self.components = [
            (rtype, weight / total, dist) for rtype, weight, dist in components
        ]
        # (cumulative weight, rtype, sampler or None, low, high): the
        # thresholds are the same left-to-right float sums a linear scan
        # accumulates, and a non-sampler dist is a (low, high) range.
        self._table = []
        acc = 0.0
        for rtype, weight, dist in self.components:
            acc += weight
            if hasattr(dist, "sample"):
                self._table.append((acc, rtype, dist, 0.0, 0.0))
            else:
                low, high = dist
                self._table.append((acc, rtype, None, low, high))

    def sample(self, rng):
        """Draw (rtype, service_us): a roll picks the first component whose
        cumulative weight exceeds it (the last if none does), then its
        service time is drawn — ``rng.uniform(low, high)``'s expression
        for a range."""
        roll = rng.random()
        for acc, rtype, dist, low, high in self._table:
            if roll < acc:
                break
        if dist is not None:
            return rtype, dist.sample(rng)
        return rtype, low + (high - low) * rng.random()

    def mean_service_us(self):
        return sum(
            w * (dist.mean() if hasattr(dist, "mean")
                 else (dist[0] + dist[1]) / 2.0)
            for _, w, dist in self.components
        )

    def __repr__(self):
        parts = ", ".join(
            f"{rtype}:{weight:.3f}" for rtype, weight, _ in self.components
        )
        return f"<RequestMix {self.name} {parts}>"


GET_SERVICE = (10.0, 12.0)
SCAN_SERVICE = (650.0, 750.0)

#: §2.1 / Figure 2: homogeneous GETs.
GET_ONLY = RequestMix("get-only", [(GET, 1.0, GET_SERVICE)])

#: Heavy-tailed GETs (figure_oversub's batch app): bounded Pareto with
#: mean ~11.3 us — same capacity footprint as GET_ONLY, fatter tail.
GET_PARETO = RequestMix(
    "get-pareto", [(GET, 1.0, BoundedPareto(2.0, 6.0, 100.0))]
)

#: §5.2 / Figure 6 (Shinjuku-style): 99.5% GET, 0.5% SCAN.
GET_SCAN_995_005 = RequestMix(
    "get-scan-99.5-0.5",
    [(GET, 0.995, GET_SERVICE), (SCAN, 0.005, SCAN_SERVICE)],
)

#: §5.3 / Figure 8: 50% GET, 50% SCAN.
GET_SCAN_50_50 = RequestMix(
    "get-scan-50-50",
    [(GET, 0.5, GET_SERVICE), (SCAN, 0.5, SCAN_SERVICE)],
)

#: §5.4 / Figure 9: MICA mixes (service costs come from the MICA model).
MICA_50_50 = RequestMix(
    "mica-50-50", [(GET, 0.5, (0.0, 0.0)), (PUT, 0.5, (0.0, 0.0))]
)
MICA_95_5 = RequestMix(
    "mica-95-5", [(GET, 0.95, (0.0, 0.0)), (PUT, 0.05, (0.0, 0.0))]
)
