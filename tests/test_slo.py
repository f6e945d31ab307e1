"""SLO engine tests (repro.obs.slo).

Error-budget arithmetic, trailing-window bin eviction, the SRE
multi-window burn-rate state machine (page only when BOTH windows
burn), and the SloTracker's registry publication path.
"""

import pytest

from conftest import Clock
from repro.obs import MetricsRegistry
from repro.obs.slo import (
    STATE_CODES,
    AvailabilitySlo,
    LatencySlo,
    Slo,
    SloTracker,
)


def test_constructor_validation():
    clock = Clock()
    for bad_target in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="target"):
            Slo("x", clock, bad_target)
    with pytest.raises(ValueError, match="window"):
        Slo("x", clock, 0.99, short_window_us=0)
    with pytest.raises(ValueError, match="window"):
        Slo("x", clock, 0.99, short_window_us=100.0, long_window_us=50.0)
    with pytest.raises(ValueError, match="threshold"):
        LatencySlo("x", clock, threshold_us=0)


def test_budget_and_compliance():
    clock = Clock()
    slo = Slo("x", clock, target=0.99)
    assert slo.budget == pytest.approx(0.01)
    # empty objective: fully compliant, budget untouched, burn zero
    assert slo.compliance() == 1.0
    assert slo.budget_consumed() == 0.0
    assert slo.budget_remaining() == 1.0
    assert slo.burn_rate() == 0.0
    assert slo.state() == "ok"
    slo.record(True, n=98)
    slo.record(False, n=2)
    assert slo.total == 100 and slo.good_total == 98
    assert slo.compliance() == pytest.approx(0.98)
    # 2% bad against a 1% budget: consumed twice over
    assert slo.budget_consumed() == pytest.approx(2.0)
    assert slo.budget_remaining() == pytest.approx(-1.0)


def test_burn_rate_is_bad_fraction_over_budget():
    clock = Clock()
    slo = Slo("x", clock, target=0.99,
              short_window_us=100.0, long_window_us=1000.0)
    slo.record(True, n=96)
    slo.record(False, n=4)
    # 4% bad / 1% budget = burn 4 in both trailing windows
    assert slo.burn_rate(slo.short_window_us) == pytest.approx(4.0)
    assert slo.burn_rate(slo.long_window_us) == pytest.approx(4.0)
    assert slo.burn_rate() == pytest.approx(4.0)   # defaults to long


def test_windowed_counts_evict_old_bins():
    clock = Clock()
    slo = Slo("x", clock, target=0.9,
              short_window_us=100.0, long_window_us=200.0)
    slo.record(False, n=10)
    assert slo.counts(slo.short_window_us) == (0, 10)
    # step past the short window: short burn clears, long still sees it
    clock.now = 150.0
    assert slo.counts(slo.short_window_us) == (0, 0)
    assert slo.counts(slo.long_window_us) == (0, 10)
    assert slo.burn_rate(slo.short_window_us) == 0.0
    # recording past the long window evicts the stale bin entirely
    clock.now = 500.0
    slo.record(True)
    assert slo.counts(slo.long_window_us) == (1, 1)
    assert len(slo._bins) == 1
    # lifetime totals are untouched by eviction
    assert slo.total == 11 and slo.good_total == 1


def test_page_requires_both_windows_burning():
    clock = Clock()
    slo = Slo("x", clock, target=0.9,
              short_window_us=100.0, long_window_us=1000.0,
              page_burn=4.0, warn_burn=1.0)
    # a fresh burst of pure failures: both windows burn at 10x -> page
    slo.record(False, n=20)
    assert slo.state() == "page"
    # pad the long window with successes: long burn drops below page,
    # even though the short window still sees only failures
    clock.now = 150.0
    slo.record(True, n=980)
    clock.now = 900.0
    slo.record(False, n=5)
    short = slo.burn_rate(slo.short_window_us)
    long_ = slo.burn_rate(slo.long_window_us)
    assert short >= slo.page_burn and long_ < slo.page_burn
    assert slo.state() == "ok"


def test_warn_between_burn_thresholds():
    clock = Clock()
    slo = Slo("x", clock, target=0.9,
              short_window_us=100.0, long_window_us=100.0,
              page_burn=4.0, warn_burn=1.0)
    # 20% bad / 10% budget = burn 2: above warn, below page
    slo.record(False, n=20)
    slo.record(True, n=80)
    assert 1.0 <= slo.burn_rate(100.0) < 4.0
    assert slo.state() == "warn"


def test_latency_and_availability_observe():
    clock = Clock()
    lat = LatencySlo("p99", clock, threshold_us=500.0, target=0.99)
    lat.observe(499.0)
    lat.observe(500.0)   # boundary counts as good
    lat.observe(501.0)
    assert (lat.good_total, lat.total) == (2, 3)
    avail = AvailabilitySlo("served", clock, 0.999)
    avail.observe(True)
    avail.observe(False)
    avail.observe(1)
    assert (avail.good_total, avail.total) == (2, 3)


def test_snapshot_row():
    clock = Clock()
    slo = LatencySlo("get_p99", clock, threshold_us=600.0, target=0.99)
    slo.observe(100.0)
    row = slo.snapshot()
    assert row["name"] == "get_p99"
    assert row["kind"] == "latency"
    assert row["target"] == 0.99
    assert row["good"] == 1 and row["total"] == 1
    assert row["state"] == "ok"
    assert set(row) >= {"compliance", "budget_remaining",
                        "burn_short", "burn_long"}


# ----------------------------------------------------------------------
# Tracker
# ----------------------------------------------------------------------
def test_tracker_get_or_create_and_observe():
    clock = Clock()
    tracker = SloTracker(clock)
    lat = tracker.latency("get_p99", threshold_us=600.0)
    assert tracker.latency("get_p99", threshold_us=999.0) is lat
    assert lat.threshold_us == 600.0   # first registration wins
    avail = tracker.availability("served", target=0.995)
    assert tracker.get("served") is avail
    assert tracker.get("missing") is None
    assert len(tracker) == 2

    tracker.observe_latency("get_p99", 100.0)
    tracker.observe_latency("unregistered", 100.0)   # silently ignored
    tracker.observe_ok("served", False)
    assert lat.total == 1
    assert avail.total == 1


def test_tracker_defaults_flow_into_new_slos():
    clock = Clock()
    tracker = SloTracker(clock, short_window_us=10.0, long_window_us=20.0)
    slo = tracker.latency("x", threshold_us=100.0)
    assert slo.short_window_us == 10.0
    assert slo.long_window_us == 20.0


def test_tracker_worst_state_and_snapshot_sorted():
    clock = Clock()
    tracker = SloTracker(clock)
    assert tracker.worst_state() == "ok"
    healthy = tracker.availability("zzz_ok", target=0.999)
    healthy.observe(True)
    burning = tracker.availability("aaa_bad", target=0.999)
    for _ in range(10):
        burning.observe(False)
    assert tracker.worst_state() == "page"
    names = [row["name"] for row in tracker.snapshot()]
    assert names == sorted(names)


def test_tracker_publish_gauges():
    clock = Clock()
    tracker = SloTracker(clock)
    slo = tracker.availability("served", target=0.9)
    for _ in range(10):
        slo.observe(False)
    registry = MetricsRegistry(clock=clock)
    tracker.publish(registry)
    assert registry.value("slo", "served", "state") == STATE_CODES["page"]
    assert registry.value("slo", "served", "burn_short") == pytest.approx(10.0)
    assert registry.value("slo", "served", "burn_long") == pytest.approx(10.0)
    assert registry.value("slo", "served", "budget_remaining") < 0.0
