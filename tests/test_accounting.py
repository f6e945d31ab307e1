"""Per-tenant accounting and interference-attribution tests.

Home of the **no-op audit** the :mod:`repro.obs.accounting` docstring
points at: by default (and with ``accounting=False``) a figure6-style
run allocates not a single accounting object — no accountant, no
ledger, no blame matrix — and its simulation output is bit-identical to
the same seed with accounting *enabled*, because the accountant only
ever reads the datapath.

Also covers: the OpenMetrics ``tenant:<name>`` scope convention (label
escaping round-trips arbitrary tenant names), per-tenant sketch summary
series, blame-matrix arithmetic, the per-victim-normalized noisy
detector (the volume-symmetry trap), the blame-driven shed controller,
and the end-to-end contended run that the figure and ``syrupctl
tenants`` are built on.
"""

import re

import pytest

from conftest import Clock, assert_drained, record_flights
from repro.experiments.figure_interference import run_variant, stage_variant
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.obs.accounting import LAYERS, TenantAccountant, TenantLedger
from repro.obs.export import to_openmetrics
from repro.obs.interference import (
    BlameMatrix,
    NoisyNeighborDetector,
    TenantShedController,
)
from repro.obs.probe import Probe
from repro.obs.registry import MetricsRegistry
from repro.workload.mixes import GET_SCAN_995_005


# ----------------------------------------------------------------------
# Ledger and blame-matrix arithmetic
# ----------------------------------------------------------------------
def test_ledger_total_wait_excludes_the_qdisc_subspan():
    led = TenantLedger("alpha")
    for layer in LAYERS:
        led.wait_us[layer] += 10.0
    # qdisc time overlaps the surrounding nic/socket wait: a sub-span,
    # not an addend
    assert led.total_wait_us() == 10.0 * (len(LAYERS) - 1)


def test_ledger_drops_by_reason_and_json_row():
    led = TenantLedger("alpha")
    led.drops["backlog"] = 2
    led.drops["qdisc"] = 1
    assert led.total_drops() == 3
    row = led.as_dict()
    assert row["tenant"] == "alpha"
    assert row["drops"] == {"backlog": 2, "qdisc": 1}
    assert set(row["wait_us"]) == set(LAYERS)


def test_blame_matrix_shares_and_diagonal():
    blame = BlameMatrix()
    blame.charge("alpha", "bravo", "socket", 90.0)
    blame.charge("alpha", "alpha", "socket", 10.0)   # self-queueing
    blame.charge("bravo", "alpha", "softirq", 5.0)
    blame.charge("alpha", "bravo", "socket", -1.0)   # ignored
    assert blame.total() == 105.0
    # diagonal excluded from imposed/suffered aggregates
    assert blame.imposed_by("bravo") == 90.0
    assert blame.suffered_by("alpha") == 90.0
    assert blame.imposed_by("alpha") == 5.0
    aggressor, layer, us, share = blame.top_aggressor("alpha")
    assert (aggressor, layer, us) == ("bravo", "socket", 90.0)
    # share is over ALL blame at that layer, diagonal included
    assert share == pytest.approx(0.9)
    assert blame.top_aggressor("charlie") is None
    assert blame.matrix()["alpha"]["bravo"]["socket"] == 90.0


def test_accountant_splits_wait_pro_rata_into_blame():
    acct = TenantAccountant()
    probe = Probe(Clock(), acct=acct)
    probe._charge_blame("alpha", "socket", 100.0,
                        {"bravo": 3.0, "alpha": 1.0})
    assert acct.blame.matrix()["alpha"]["bravo"]["socket"] == 75.0
    assert acct.blame.matrix()["alpha"]["alpha"]["socket"] == 25.0
    # nothing ahead, or zero weight: nothing charged
    probe._charge_blame("alpha", "socket", 100.0, {})
    probe._charge_blame("alpha", "socket", 100.0, {"bravo": 0.0})
    assert acct.blame.total() == 100.0


# ----------------------------------------------------------------------
# OpenMetrics tenant labels: escaping round-trip, sketch summaries
# ----------------------------------------------------------------------
def _parse_label(line, label):
    """The (escaped) value of ``label`` in an exposition line, decoded."""
    match = re.search(rf'{label}="((?:[^"\\]|\\.)*)"', line)
    assert match is not None, line
    out, chars = [], iter(match.group(1))
    for ch in chars:
        if ch == "\\":
            nxt = next(chars)
            out.append({"n": "\n", '"': '"', "\\": "\\"}[nxt])
        else:
            out.append(ch)
    return "".join(out)


@pytest.mark.parametrize("tenant", [
    "alpha",
    'quo"ted',
    "back\\slash",
    "new\nline",
    '\\"both\\"\n',
])
def test_tenant_label_escaping_round_trips(tenant):
    reg = MetricsRegistry()
    reg.gauge("tenants", f"tenant:{tenant}", "completed").set(7)
    lines = [
        line for line in to_openmetrics(reg).splitlines()
        if line.startswith("syrup_completed{")
    ]
    assert len(lines) == 1
    # the tenant: prefix split into scope="tenant" + a tenant label
    assert _parse_label(lines[0], "scope") == "tenant"
    assert _parse_label(lines[0], "tenant") == tenant
    # escaped text stays on one exposition line even with raw newlines
    assert lines[0].endswith(" 7")


def test_per_tenant_sketch_exports_summary_series():
    reg = MetricsRegistry()
    sketch = reg.sketch("tenants", "tenant:alpha", "latency_us")
    for v in range(1, 101):
        sketch.observe(float(v))
    text = to_openmetrics(reg)
    assert "# TYPE syrup_latency_us summary" in text
    quantile_lines = [
        line for line in text.splitlines()
        if line.startswith("syrup_latency_us{")
    ]
    assert quantile_lines, text
    for line in quantile_lines:
        assert _parse_label(line, "tenant") == "alpha"
        assert _parse_label(line, "scope") == "tenant"
        assert 'quantile="' in line
    assert ('syrup_latency_us_count{app="tenants",scope="tenant",'
            'tenant="alpha"} 100') in text


def test_accountant_publish_mirrors_ledgers_into_tenant_gauges():
    acct = TenantAccountant()
    led = acct.ledger("alpha")
    led.cpu_service_us = 42.0
    led.completed = 3
    led.wait_us["socket"] += 9.0
    acct.blame.charge("alpha", "bravo", "socket", 9.0)
    reg = MetricsRegistry()
    acct.publish(reg)
    assert reg.gauge("tenants", "tenant:alpha", "cpu_service_us").value == 42.0
    assert reg.gauge("tenants", "tenant:alpha", "socket_wait_us").value == 9.0
    assert reg.gauge("tenants", "tenant:alpha", "suffered_us").value == 9.0


# ----------------------------------------------------------------------
# The noisy-neighbor detector: per-victim normalization
# ----------------------------------------------------------------------
class _FakeAcct:
    def __init__(self):
        self.blame = BlameMatrix()

    def tenants(self):
        names = set()
        for victim, aggressor, _layer in self.blame._cells:
            names.add(victim)
            names.add(aggressor)
        return sorted(names)


def test_detector_normalizes_per_victim_not_by_absolute_volume():
    """The volume-symmetry trap: bravo floods, so bravo also *suffers*
    a huge absolute wait — mostly self-inflicted, but alpha's share of
    it in absolute microseconds dwarfs everything alpha suffers.  A
    detector comparing absolute imposed-µs would flag the victim; the
    per-victim law must flag only bravo."""
    acct = _FakeAcct()
    # alpha's queueing: 1000us of it is bravo's fault (91%)
    acct.blame.charge("alpha", "bravo", "socket", 1_000.0)
    acct.blame.charge("alpha", "alpha", "socket", 100.0)
    # bravo's queueing is enormous but 96% self-inflicted; alpha's
    # absolute contribution (2000us) still exceeds what bravo imposed
    acct.blame.charge("bravo", "bravo", "socket", 50_000.0)
    acct.blame.charge("bravo", "alpha", "socket", 2_000.0)
    detector = NoisyNeighborDetector(acct, share_threshold=0.5,
                                     min_window_us=100.0)
    detector()
    assert set(detector.noisy) == {"bravo"}
    assert detector.noisy["bravo"] == pytest.approx(1_000.0 / 1_100.0)


def test_detector_windows_deltas_and_respects_min_volume():
    acct = _FakeAcct()
    acct.blame.charge("alpha", "bravo", "socket", 1_000.0)
    detector = NoisyNeighborDetector(acct, share_threshold=0.5,
                                     min_window_us=100.0)
    detector()
    assert set(detector.noisy) == {"bravo"}
    # next window: no new blame -> flag clears (cumulative is diffed)
    detector()
    assert detector.noisy == {}
    # a window below min_window_us flags nobody, whatever the share
    acct.blame.charge("alpha", "bravo", "socket", 50.0)
    detector()
    assert detector.noisy == {}


def test_detector_publishes_interference_gauges():
    acct = _FakeAcct()
    acct.blame.charge("alpha", "bravo", "socket", 1_000.0)
    reg = MetricsRegistry()
    NoisyNeighborDetector(acct, reg, min_window_us=100.0)()
    assert reg.gauge("interference", "tenant:bravo", "noisy").value == 1
    assert reg.gauge("interference", "tenant:bravo", "imposed_us").value \
        == 1_000.0
    assert reg.gauge("interference", "tenant:alpha", "suffered_us").value \
        == 1_000.0
    assert reg.gauge("interference", "tenant:alpha", "noisy").value == 0


# ----------------------------------------------------------------------
# TenantShedController: identity-aware, flagged tenants only
# ----------------------------------------------------------------------
class _FakeSlo:
    def __init__(self, state="ok"):
        self._state = state

    def state(self):
        return self._state


class _FakeMap:
    def __init__(self):
        self.values = {}

    def update(self, key, value):
        self.values[key] = value


def test_tenant_shed_controller_sheds_flagged_tenants_only():
    detector = _FakeAcct()
    detector.noisy = {"bravo": 0.9}
    slo = _FakeSlo("page")
    shed_map = _FakeMap()
    ctl = TenantShedController(shed_map, detector, slo,
                               {"alpha": 1, "bravo": 2},
                               step_up=25, step_down=2)
    ctl()
    assert ctl.levels == {"alpha": 0, "bravo": 25}
    assert shed_map.values == {1: 0, 2: 25}
    ctl()
    assert ctl.levels["bravo"] == 50
    # healthy windows decay slowly; never-flagged tenants never rise
    slo._state = "ok"
    ctl()
    assert ctl.levels == {"alpha": 0, "bravo": 48}
    # warn escalates gently
    slo._state = "warn"
    ctl()
    assert ctl.levels["bravo"] == 58
    assert ctl.levels["alpha"] == 0


def test_tenant_shed_controller_caps_at_max_level():
    detector = _FakeAcct()
    detector.noisy = {"bravo": 0.9}
    ctl = TenantShedController(_FakeMap(), detector, _FakeSlo("page"),
                               {"bravo": 2}, step_up=60, max_level=95)
    ctl()
    ctl()
    assert ctl.levels["bravo"] == 95


# ----------------------------------------------------------------------
# The no-op audit: disabled means bit-identical and allocation-free
# ----------------------------------------------------------------------
def fingerprint(testbed, gen):
    """Everything a figure table is computed from, bit-for-bit."""
    return (
        tuple(gen.latency._samples),
        {tag: tuple(gen.latency._select(tag)) for tag in gen.latency.tags()},
        gen.drop_fraction(),
        dict(testbed.machine.netstack.drops),
        testbed.machine.now,
    )


def test_machine_defaults_leave_the_accountant_null():
    testbed = RocksDbTestbed(seed=3)
    assert testbed.machine.obs.acct is None
    assert testbed.machine.syrupd.tenants() == {"tenants": [], "blame": {}}


def test_default_runs_allocate_no_accounting_objects_and_stay_identical(
    monkeypatch,
):
    counts = {}

    def probe(cls):
        orig = cls.__init__
        counts[cls.__name__] = 0

        def wrapped(self, *a, **k):
            counts[cls.__name__] += 1
            return orig(self, *a, **k)

        monkeypatch.setattr(cls, "__init__", wrapped)

    for cls in (TenantAccountant, TenantLedger, BlameMatrix):
        probe(cls)
    # sanity: the probe sees instantiations
    TenantLedger("t")
    assert counts["TenantLedger"] == 1
    counts["TenantLedger"] = 0

    def figure6_point(tenant=None, **kwargs):
        def factory():
            return RocksDbTestbed(seed=3, **kwargs)

        testbed = factory()
        gen = testbed.drive(100_000, GET_SCAN_995_005, 60_000.0, 15_000.0,
                            tenant=tenant)
        gen.start()
        testbed.machine.run()
        return fingerprint(testbed, gen)

    # a default build and an explicitly-disabled build are the same run
    default = figure6_point()
    assert default == figure6_point(accounting=False)
    assert counts == {"TenantAccountant": 0, "TenantLedger": 0,
                      "BlameMatrix": 0}

    # the accountant reads the datapath, never steers it: the same seed
    # with accounting ON and tenant-labeled traffic is still the same run
    assert default == figure6_point(tenant="alpha", accounting=True)
    assert counts["TenantAccountant"] == 1
    assert counts["TenantLedger"] >= 1


def test_live_accountant_ignores_tenantless_traffic(monkeypatch):
    """Every seam bails before touching state when requests carry no
    tenant — a live accountant over tenant-less load books nothing."""
    testbed = RocksDbTestbed(seed=3, accounting=True)
    gen = testbed.drive(100_000, GET_SCAN_995_005, 20_000.0, 5_000.0)
    gen.start()
    testbed.machine.run()
    acct = testbed.machine.obs.acct
    assert acct is not None
    assert acct.ledgers == {}
    assert len(acct.blame) == 0


#: A socket-layer rank function that sheds every fourth request id
#: (u64 at payload offset 32, see repro.net.packet).
SHED_EVERY_FOURTH = '''
def rank(pkt):
    if pkt_len(pkt) < 40:
        return PASS
    if load_u64(pkt, 32) % 4 == 0:
        return DROP
    return PASS
'''


def test_one_shed_packet_books_one_drop():
    """A rank function's DROP is refused by the socket *and* counted by
    the netstack; the tenant must still be billed once, as qdisc_shed."""
    testbed = RocksDbTestbed(
        seed=3, accounting=True, qdisc=(SHED_EVERY_FOURTH, "socket", "pifo"),
    )
    gen = testbed.drive(40_000, GET_SCAN_995_005, 20_000.0, 0.0,
                        tenant="alpha")
    gen.start()
    testbed.machine.run()
    machine = testbed.machine
    shed = sum(q["sched_drops"] for q in machine.syrupd.qdiscs())
    assert shed > 100
    assert gen.sent_in_window() - gen.completed_in_window() == shed
    ledger = machine.obs.acct.ledger("alpha")
    assert ledger.drops == {"qdisc_shed": shed}
    assert ledger.total_drops() == shed
    # the datapath counters the benchmark's conservation check reads
    # keep counting the refusal at both layers
    assert machine.netstack.drops["socket_overflow"] == shed
    assert machine.netstack.socket_table.group(8080).total_drops() == shed


# ----------------------------------------------------------------------
# End to end: the contended pair, attribution, and the closed loop
# ----------------------------------------------------------------------
def test_contended_run_attributes_alpha_queueing_to_bravo():
    testbed, gen_alpha, gen_bravo, _ = run_variant(
        "contended", 60_000, 420_000, 60_000.0, 15_000.0, seed=3,
    )
    acct = testbed.machine.obs.acct
    assert set(acct.tenants()) == {"alpha", "bravo"}
    led = acct.ledgers["alpha"]
    assert led.completed > 0
    assert led.cpu_service_us > 0.0
    top = acct.blame.top_aggressor("alpha")
    assert top is not None
    aggressor, layer, _us, share = top
    assert aggressor == "bravo"
    assert layer == "socket"
    assert share >= 0.8  # the figure's ATTRIBUTION_TARGET
    # the snapshot (syrupd.tenants / syrupctl tenants --json) is JSON-safe
    snap = acct.snapshot()
    assert [row["tenant"] for row in snap["tenants"]] == ["alpha", "bravo"]
    assert "bravo" in snap["blame"]["alpha"]


def test_blame_shed_restores_the_victim_without_alpha_drops():
    testbed, gen_alpha, gen_bravo, detector = run_variant(
        "blame_shed", 60_000, 420_000, 60_000.0, 15_000.0, seed=3,
    )
    assert set(detector.noisy) <= {"bravo"}
    acct = testbed.machine.obs.acct
    alpha_drops = acct.ledgers["alpha"].total_drops() \
        if "alpha" in acct.ledgers else 0
    bravo_drops = acct.ledgers["bravo"].total_drops()
    # the whole point: bravo pays, alpha does not
    assert bravo_drops > 0
    assert gen_alpha.drop_fraction() <= 0.01
    assert alpha_drops <= 0.01 * max(acct.ledgers["alpha"].completed, 1)


# ----------------------------------------------------------------------
# Flight records: every way a flight can end, nothing left behind
# ----------------------------------------------------------------------
#: A socket-layer rank function that spreads both tenants over eight
#: priorities by key hash (u64 at payload offset 24), so a full backlog
#: evicts queued elements of either tenant and refuses worst-rank arrivals.
RANK_BY_KEY_HASH = '''
def rank(pkt):
    if pkt_len(pkt) < 32:
        return PASS
    return load_u64(pkt, 24) % 8
'''


def test_drained_run_leaves_no_flight_and_conserves_every_wait(monkeypatch):
    """The blame_shed staging over a 32-deep backlog with a ranked socket
    qdisc ends flights all four ways: pulled by a worker, evicted from the
    qdisc, refused on overflow, dropped by the shed valve."""
    testbed, _alpha, _bravo, _detector = stage_variant(
        "blame_shed", 60_000, 420_000, 40_000.0, 0.0, seed=3,
    )
    machine = testbed.machine
    for socket in testbed.server.sockets:
        socket.backlog = 32
    testbed.app.deploy_qdisc(RANK_BY_KEY_HASH, "socket")
    acct = machine.obs.acct
    charge_blame = Probe._charge_blame
    ahead_wait = {}     # (victim, layer) -> us waited behind something

    def recording(probe, victim, layer, wait_us, ahead):
        if wait_us > 0.0 and sum(ahead.values()) > 0.0:
            key = (victim, layer)
            ahead_wait[key] = ahead_wait.get(key, 0.0) + wait_us
        charge_blame(probe, victim, layer, wait_us, ahead)

    monkeypatch.setattr(Probe, "_charge_blame", recording)
    flights = record_flights(monkeypatch)
    machine.run()

    ledgers = acct.ledgers
    drops = {}
    for ledger in ledgers.values():
        for reason, count in ledger.drops.items():
            drops[reason] = drops.get(reason, 0) + count
    assert set(drops) == {"qdisc_evict", "socket_overflow", "select_drop"}
    assert all(ledger.completed > 0 for ledger in ledgers.values())

    # nothing in flight, nobody mirrored in any queue
    assert_drained(machine.obs.probe, flights)

    # one wait event per dequeue, layer by layer
    qdiscs = machine.syrupd.qdiscs()
    delivered_by_nic = machine.nic.rx_packets - sum(machine.nic.drops.values())
    dequeues = {
        "nic": delivered_by_nic,
        "softirq": delivered_by_nic - machine.netstack.drops["ring_overflow"],
        "socket": testbed.server.stats.completed.total(),
        "qdisc": sum(row["dequeues"] for row in qdiscs),
    }
    assert dequeues["qdisc"] == dequeues["socket"] > 0
    assert sum(row["evictions"] for row in qdiscs) == drops["qdisc_evict"]
    for layer, expected in dequeues.items():
        booked = sum(led.wait_events[layer] for led in ledgers.values())
        assert booked == expected, layer

    # a victim's blame row at a layer is exactly the waiting it did behind
    # somebody: the pro-rata split loses nothing and invents nothing
    assert set(ahead_wait) == {(victim, layer) for victim in ledgers
                               for layer in ("softirq", "socket")}
    for (victim, layer), waited in ahead_wait.items():
        row = acct.blame.imposed_on(victim, layer)
        assert sum(row.values()) == pytest.approx(waited, rel=1e-9)
        assert waited <= ledgers[victim].wait_us[layer]
