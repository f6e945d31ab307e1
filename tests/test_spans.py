"""Tests for causal span tracing, queue telemetry, and tail analysis.

Covers the off-by-default null-object discipline, the span tree schema
at every seam (NIC, softirq, decision, socket wait, thread scheduling),
the paired-run determinism contract (spans on/off gives bit-identical
simulations), the Chrome Trace Event Format exporter, queue-state gauges
agreeing with the sockets' own drop counters at saturation, the
critical-path analyzer math, the per-stage breakdown over span trees
(stamp-for-stamp equal to wrapping the NIC, sockets and server), the
syrupctl spans/tail/events surfaces, OpenMetrics label escaping, and the
figure_tail harness.
"""

import io
import json
import math

import pytest

from repro import Hook, Machine, set_a
from repro.apps.rocksdb import RocksDbServer
from repro.experiments.figure_tail import run_figure_tail
from repro.experiments.runner import RocksDbTestbed
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.obs.tail import (
    critical_path,
    percentile,
    render_critical_path,
    stage_percentiles,
)
from repro.policies.builtin import ROUND_ROBIN, SCAN_AVOID
from repro.policies.thread_policies import GetPriorityPolicy
from repro.stats.latency import nearest_rank
from repro.syrupctl import render_events, render_spans, render_stats, render_tail
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY, GET_SCAN_50_50, GET_SCAN_995_005


def _traced_machine(spans=1, seed=101, load=60_000, duration_us=20_000,
                    policy=SCAN_AVOID, stamps=None, **machine_kwargs):
    machine = Machine(set_a(), seed=seed, spans=spans, **machine_kwargs)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6,
                           mark_scans=policy is SCAN_AVOID)
    app.deploy_policy(policy, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    gen = OpenLoopGenerator(machine, 8080, load, GET_SCAN_995_005,
                            duration_us=duration_us)
    server.response_sink = gen.deliver_response
    if stamps is not None:
        _stamp_lifecycle(machine, server, stamps)
    gen.start()
    machine.run()
    return machine, gen


def _stamp_lifecycle(machine, server, stamps):
    """Wrap the NIC, the sockets and the server, so ``stamps[request]``
    holds [NIC arrival, socket enqueue, service start, completion].  The
    completion stamp is taken where the server hands the response to its
    ``response_sink``, at the same simulated instant it books the request
    complete."""
    engine, nic = machine.engine, machine.nic
    receive = nic.receive

    def arrived(packet):
        if packet.request is not None:
            stamps[packet.request] = [engine.now, None, None, None]
        receive(packet)

    def stamp(slot, inner, request_of=lambda request: request):
        def wrapper(*args):
            stamps[request_of(args[-1])][slot] = engine.now
            inner(*args)
        return wrapper

    nic.receive = arrived
    for socket in server.sockets:
        socket.on_enqueue = stamp(1, socket.on_enqueue,
                                  lambda packet: packet.request)
    server.on_request_start = stamp(2, server.on_request_start)
    server.response_sink = stamp(3, server.response_sink)


# ----------------------------------------------------------------------
# Null-object discipline
# ----------------------------------------------------------------------
def test_spans_off_by_default():
    machine = Machine(set_a())
    assert machine.obs.spans is NULL_SPANS
    assert not machine.obs.spans.enabled
    assert machine.obs.spans.trees() == []
    assert len(machine.obs.spans) == 0
    assert machine.obs.spans.to_chrome_trace(io.StringIO()) == 0


def test_sample_every_validation():
    with pytest.raises(ValueError):
        SpanTracer(sample_every=0)


# ----------------------------------------------------------------------
# Span tree schema across the seams
# ----------------------------------------------------------------------
def test_span_tree_structure():
    machine, _gen = _traced_machine(spans=1, metrics=True)
    tracer = machine.obs.spans
    assert tracer.enabled and tracer.sampled > 0
    assert tracer.live == 0  # every sampled request resolved by drain
    trees = tracer.trees(complete=True)
    assert trees
    tree = trees[5]
    names = [s["name"] for s in tree["spans"]]
    assert names[0] == "nic_queue"
    assert "softirq" in names
    assert "decision:socket_select" in names
    assert "socket_wait" in names
    assert names[-1] == "service"
    # spans are closed, ordered, and inside the tree window
    for span in tree["spans"]:
        assert span["end"] is not None
        assert tree["start"] <= span["start"] <= span["end"] <= tree["end"]
    by_name = {s["name"]: s for s in tree["spans"]}
    # socket_wait carries the backlog depth at enqueue
    wait = by_name["socket_wait"]
    assert wait["attrs"]["depth"] >= 0
    assert wait["attrs"]["sid"] > 0
    # the decision span links outcome, deployed fd, and event seq
    decision = by_name["decision:socket_select"]
    assert decision["start"] == decision["end"]
    assert decision["attrs"]["outcome"] in ("pass", "steer")
    assert decision["attrs"]["fd"] == machine.syrupd.status()[0]["fd"]
    assert decision["attrs"]["seq"] >= 1
    assert by_name["service"]["attrs"]["thread"].startswith("rocksdb-worker")


def test_head_sampling_is_counter_based():
    m_all, _ = _traced_machine(spans=1)
    m_half, _ = _traced_machine(spans=2)
    t_all, t_half = m_all.obs.spans, m_half.obs.spans
    assert t_all.seen == t_half.seen
    assert t_all.sampled == t_all.seen
    # every 2nd request-bearing packet: first is sampled, so ceil(n/2)
    assert t_half.sampled == (t_half.seen + 1) // 2
    assert t_half.completed_count + t_half.aborted_count == t_half.sampled


def test_spans_true_means_every_request():
    machine, _gen = _traced_machine(spans=True)
    tracer = machine.obs.spans
    assert tracer.sample_every == 1
    assert tracer.sampled == tracer.seen


def test_runqueue_wait_on_cfs():
    machine, _gen = _traced_machine(spans=1, scheduler="cfs")
    names = set()
    for tree in machine.obs.spans.trees(complete=True):
        names.update(s["name"] for s in tree["spans"])
    assert "runqueue_wait" in names
    assert "placement" not in names  # ghOSt-only


def test_ghost_placement_spans():
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 36}),
        num_threads=36, scheduler="ghost", seed=3, mark_scans=True,
        mark_types=True,
        thread_policy_factory=lambda srv: GetPriorityPolicy(srv.type_map),
        spans=1, spans_capacity=1 << 16,
    )
    gen = testbed.drive(6_000, GET_SCAN_50_50, 40_000, 5_000).start()
    testbed.machine.run()
    placed = [
        t for t in testbed.machine.obs.spans.trees(complete=True)
        if any(s["name"] == "placement" for s in t["spans"])
    ]
    assert placed
    tree = placed[0]
    by_name = {s["name"]: s for s in tree["spans"]}
    placement = by_name["placement"]
    assert placement["attrs"]["core"] >= 0
    assert placement["end"] > placement["start"]  # commit + IPI latency
    # runqueue_wait ends where the placement transaction begins
    assert by_name["runqueue_wait"]["end"] == placement["start"]


def test_two_generators_never_share_a_tree():
    """rids restart at 0 per generator, so trees are keyed by the request
    object: no tree may hold a second request's spans."""
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
        mark_scans=True, seed=3, spans=1, spans_capacity=1 << 14,
    )
    for tenant in ("alpha", "bravo"):
        testbed.drive(60_000, GET_SCAN_995_005, 20_000.0, 0.0,
                      stream=tenant, tenant=tenant).start()
    testbed.machine.run()
    tracer = testbed.machine.obs.spans
    trees = tracer.trees()
    assert tracer.sampled == tracer.seen == len(trees)
    assert len({tree["rid"] for tree in trees}) < len(trees)  # rids repeat
    for tree in trees:
        assert [s["name"] for s in tree["spans"]].count("service") <= 1


def test_saturated_socket_trees_abort():
    # Figure-2 drop regime: vanilla hash selection at an overload point
    machine = Machine(set_a(), seed=2, spans=1, spans_capacity=1 << 16)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6)
    gen = OpenLoopGenerator(machine, 8080, 360_000, GET_ONLY,
                            duration_us=30_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    tracer = machine.obs.spans
    aborted = tracer.trees(complete=False)
    assert tracer.aborted_count == len(aborted) > 0
    reasons = {t["abort_reason"] for t in aborted}
    assert "socket_overflow" in reasons
    # aborted trees are excluded from the cohort analysis
    assert critical_path(aborted)["count"] == 0


# ----------------------------------------------------------------------
# Determinism contract
# ----------------------------------------------------------------------
def _fingerprint(machine, gen):
    return (
        gen.latency.count,
        round(gen.latency.p99(), 9),
        round(gen.latency.mean(), 9),
        machine.engine.events_dispatched,
    )


def test_spans_do_not_change_results():
    """Paired runs: span tracing on/off is observationally inert."""
    off = _fingerprint(*_traced_machine(spans=None))
    on = _fingerprint(*_traced_machine(spans=1))
    sampled = _fingerprint(*_traced_machine(spans=7))
    assert off == on == sampled


def test_spans_deterministic_across_runs():
    """Same seed, same process: identical trees — socket ids included,
    since sids are allocated per machine — and identical recorder keys
    (``s<sid>.backlog``), so every export is stable run to run."""
    kwargs = dict(spans=3, metrics=True, timeseries=2_000.0)
    m1, _ = _traced_machine(**kwargs)
    m2, _ = _traced_machine(**kwargs)
    assert m1.obs.spans.trees() == m2.obs.spans.trees()
    sids = {span["attrs"]["sid"] for tree in m1.obs.spans.trees()
            for span in tree["spans"] if span["name"] == "socket_wait"}
    assert sids and sids <= set(range(1, 7))
    assert m1.obs.recorder.keys() == m2.obs.recorder.keys()
    a1 = critical_path(m1.obs.spans.trees(complete=True))
    a2 = critical_path(m2.obs.spans.trees(complete=True))
    assert a1 == a2


# ----------------------------------------------------------------------
# Queue-state telemetry (flight-recorder probes)
# ----------------------------------------------------------------------
def test_queue_gauges_recorded():
    machine, _gen = _traced_machine(spans=None, metrics=True,
                                    timeseries=2_000.0)
    recorder = machine.obs.recorder
    keys = recorder.keys()
    assert ("(root)", "nic", "rx_in_flight") in keys
    assert ("(root)", "sched", "runnable_threads") in keys
    softirq = [k for k in keys if k[1] == "softirq"]
    assert len(softirq) == len(machine.netstack.softirq)
    backlogs = [k for k in keys if k[1] == "sockets" and ".backlog" in k[2]]
    assert len(backlogs) == 6  # one gauge per worker socket
    assert all(k[0] == "rocksdb" for k in backlogs)
    # gauges sample instantaneous depths: non-negative, bounded by backlog
    for key in backlogs:
        values = recorder.series(*key).values()
        assert values and all(0 <= v <= 256 for v in values)


def test_backlog_gauges_agree_with_drop_counters_at_saturation():
    """When a socket pins at its backlog limit, its own drop counter and
    the sampled gauge must tell the same story."""
    machine = Machine(set_a(), seed=2, metrics=True, timeseries=1_000.0)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6)
    gen = OpenLoopGenerator(machine, 8080, 360_000, GET_ONLY,
                            duration_us=40_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    recorder = machine.obs.recorder
    saturated = [s for s in server.sockets if s.drops > 0]
    assert saturated, "the figure-2 overload point must drop"
    for socket in saturated:
        values = recorder.series(
            "rocksdb", "sockets", f"s{socket.sid}.backlog"
        ).values()
        # a dropping socket must have been sampled at its backlog limit
        assert max(values) == socket.backlog
    for socket in server.sockets:
        if socket.drops == 0 and socket.enqueued > 0:
            values = recorder.series(
                "rocksdb", "sockets", f"s{socket.sid}.backlog"
            ).values()
            assert max(values) <= socket.backlog


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def test_chrome_trace_schema(tmp_path):
    machine, _gen = _traced_machine(spans=4)
    tracer = machine.obs.spans
    path = tmp_path / "trace.json"
    n = tracer.to_chrome_trace(path)
    document = json.loads(path.read_text())  # well-formed JSON
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert len(events) == n > 0
    expected = len(tracer.trees()) + sum(
        len(t["spans"]) for t in tracer.trees()
    )
    assert n == expected
    for event in events:
        assert event["ph"] == "X"
        assert isinstance(event["ts"], float)
        assert event["dur"] >= 0.0
        assert event["pid"] == 1
        assert isinstance(event["tid"], int)
        assert isinstance(event["name"], str)
    request_events = [e for e in events if e["name"] == "request"]
    assert len(request_events) == len(tracer.trees())
    assert all("rid" in e["args"] for e in request_events)


def test_chrome_trace_accepts_path_and_file(tmp_path):
    machine, _gen = _traced_machine(spans=8)
    tracer = machine.obs.spans
    path = tmp_path / "trace.json"
    n_path = tracer.to_chrome_trace(path)
    buffer = io.StringIO()
    n_file = tracer.to_chrome_trace(buffer)
    assert n_path == n_file
    assert json.loads(buffer.getvalue()) == json.loads(path.read_text())
    buffer.write("still open")  # file-like destinations stay open


# ----------------------------------------------------------------------
# Critical-path analyzer math
# ----------------------------------------------------------------------
def _synthetic_tree(rid, wait_us, service_us):
    start = 100.0 * rid
    return {
        "rid": rid, "rtype": 0, "start": start,
        "end": start + wait_us + service_us, "complete": True,
        "abort_reason": None,
        "spans": [
            {"name": "socket_wait", "start": start,
             "end": start + wait_us},
            {"name": "service", "start": start + wait_us,
             "end": start + wait_us + service_us},
        ],
    }


def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))    # unsorted: percentile sorts for you
    for q in (50.0, 99.0, 100.0):
        assert percentile(values, q) == nearest_rank(sorted(values), q) == q
    assert percentile([7.0], 99.0) == 7.0
    assert percentile([], 99.0) == 0.0


def test_critical_path_attributes_the_gap():
    # 49 fast requests (no wait, distinct service times 10..14.8us) plus
    # one slow request stuck waiting 90us; with n=50 the nearest-rank
    # p99 edge is the maximum, so the hi cohort is exactly the slow one
    trees = [_synthetic_tree(i, 0.0, 10.0 + 0.1 * i) for i in range(49)]
    trees.append(_synthetic_tree(49, 90.0, 10.0))
    analysis = critical_path(trees)
    assert analysis["count"] == 50
    assert analysis["lo_us"] == pytest.approx(12.4)
    assert analysis["hi_us"] == pytest.approx(100.0)
    assert analysis["lo_count"] == 25
    assert analysis["hi_count"] == 1
    lo_service_mean = sum(10.0 + 0.1 * i for i in range(25)) / 25
    assert analysis["gap_us"] == pytest.approx(100.0 - lo_service_mean)
    top = analysis["rows"][0]
    assert top["span"] == "socket_wait"
    assert top["gap_us"] == pytest.approx(90.0)
    assert top["gap_share"] == pytest.approx(90.0 / analysis["gap_us"])
    service = next(r for r in analysis["rows"] if r["span"] == "service")
    assert service["gap_us"] == pytest.approx(10.0 - lo_service_mean)


def test_critical_path_empty_and_incomplete():
    assert critical_path([])["count"] == 0
    incomplete = dict(_synthetic_tree(0, 0.0, 10.0), complete=False)
    assert critical_path([incomplete])["count"] == 0


def test_render_critical_path_table():
    trees = [_synthetic_tree(i, 0.0, 10.0) for i in range(20)]
    trees.append(_synthetic_tree(20, 50.0, 10.0))
    text = render_critical_path(critical_path(trees), title="t")
    assert "socket_wait" in text and "gap_share_pct" in text
    assert "21 sampled requests" in text


# ----------------------------------------------------------------------
# Per-stage breakdown (stage_percentiles)
# ----------------------------------------------------------------------
def test_stage_percentiles_math():
    trees = [_synthetic_tree(i, float(i), 10.0) for i in range(101)]
    trees.append(dict(_synthetic_tree(101, 500.0, 10.0), complete=False))
    stages = stage_percentiles(trees, q=50.0)
    assert stages == {"service": 10.0, "socket_wait": 50.0, "total": 60.0}
    assert stage_percentiles(trees)["socket_wait"] == pytest.approx(99.0)
    assert math.isnan(stage_percentiles([])["total"])
    # a span missing from a tree counts as 0 us there
    bare = _synthetic_tree(0, 8.0, 10.0)
    bare["spans"] = bare["spans"][1:]
    assert stage_percentiles([bare, _synthetic_tree(1, 8.0, 10.0)],
                             q=0.0)["socket_wait"] == 0.0


def test_span_stamps_equal_the_request_lifecycle_stamps():
    """Spans record the four boundaries a wrapper around the NIC, the
    sockets and the server sees: NIC arrival, socket enqueue, service
    start and completion, equal as floats for every completed request."""
    stamps = {}
    machine, _gen = _traced_machine(seed=9, load=120_000, duration_us=60_000,
                                    stamps=stamps, spans_capacity=1 << 15)
    trees = machine.obs.spans.trees(complete=True)
    completed = [s for s in stamps.values() if s[3] is not None]
    assert len(trees) == len(completed) > 5_000
    by_rid = {request.rid: s for request, s in stamps.items()}
    for tree in trees:
        starts = {s["name"]: s["start"] for s in tree["spans"]}
        assert by_rid[tree["rid"]] == [tree["start"], starts["socket_wait"],
                                       starts["service"], tree["end"]]


def test_stages_fit_inside_the_total():
    machine, _gen = _traced_machine(load=20_000, duration_us=30_000)
    trees = machine.obs.spans.trees(complete=True)
    assert len(trees) > 400
    for tree in trees:  # the packet path's spans never overlap
        durations = [s["end"] - s["start"] for s in tree["spans"]]
        assert sum(durations) <= (tree["end"] - tree["start"]) * (1 + 1e-12)
    stages = stage_percentiles(trees, q=50.0)
    assert all(0.0 <= v <= stages["total"] for v in stages.values())


def test_all_stages_populated():
    machine, _gen = _traced_machine(load=20_000, duration_us=30_000)
    trees = machine.obs.spans.trees(complete=True)
    assert len(trees) > 100
    stages = stage_percentiles(trees)
    assert set(stages) == {"nic_queue", "softirq", "decision:socket_select",
                           "socket_wait", "service", "total"}
    assert all(not math.isnan(v) for v in stages.values())


def test_stage_percentiles_attribute_hol_blocking_to_socket_wait():
    """SCAN Avoid's whole effect shows up in the socket_wait stage."""
    rr, sa = (
        stage_percentiles(t for t in _traced_machine(
            policy=policy, load=120_000, duration_us=120_000,
            spans_capacity=1 << 15)[0].obs.spans.trees()
            if t["start"] >= 30_000)
        for policy in (ROUND_ROBIN, SCAN_AVOID)
    )
    assert sa["socket_wait"] < rr["socket_wait"] / 3
    # the other stages barely move
    for stage in ("nic_queue", "softirq", "service"):
        assert sa[stage] == pytest.approx(rr[stage], rel=0.5)


# ----------------------------------------------------------------------
# Operator surfaces
# ----------------------------------------------------------------------
def test_render_spans_and_tail():
    machine, _gen = _traced_machine(spans=1)
    spans_text = render_spans(machine, last=3)
    assert "== syrup spans ==" in spans_text
    assert "service" in spans_text and "rid=" in spans_text
    tail_text = render_tail(machine)
    assert "syrup tail" in tail_text
    assert "socket_wait" in tail_text


def test_render_spans_disabled_message():
    machine = Machine(set_a())
    assert "span tracing disabled" in render_spans(machine)
    assert "span tracing disabled" in render_tail(machine)


def test_render_events_since_and_limit():
    machine, _gen = _traced_machine(spans=None, metrics=True)
    halfway = machine.now / 2
    text = render_events(machine, last=5, since=halfway)
    lines = text.splitlines()
    assert 0 < len(lines) <= 5
    assert all(json.loads(line)["ts"] >= halfway for line in lines)
    # kind + since compose
    text = render_events(machine, last=3, kind="decision", since=halfway)
    for line in text.splitlines():
        event = json.loads(line)
        assert event["kind"] == "decision" and event["ts"] >= halfway


def test_events_since_filter():
    machine, _gen = _traced_machine(spans=None, metrics=True)
    events = machine.obs.events
    cutoff = machine.now * 0.75
    since = events.events(since=cutoff)
    assert since and all(e["ts"] >= cutoff for e in since)
    assert len(since) < len(events.events())


def test_stats_footer_says_dropped():
    machine, _gen = _traced_machine(spans=None, metrics=True)
    footer = render_stats(machine).splitlines()[-1]
    assert "dropped" in footer
    assert "overwritten" not in footer


def test_syrupctl_spans_cli(capsys, tmp_path):
    from repro.syrupctl import main

    trace = tmp_path / "demo_trace.json"
    assert main(["tail", "--load", "60000", "--duration-ms", "20",
                 "--export-trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "syrup tail" in out
    assert json.loads(trace.read_text())["traceEvents"]
    assert main(["spans", "--load", "60000", "--duration-ms", "20",
                 "--last", "2"]) == 0
    assert "== syrup spans ==" in capsys.readouterr().out


# ----------------------------------------------------------------------
# figure_tail harness
# ----------------------------------------------------------------------
def test_figure_tail_contrasts_policies(tmp_path):
    export = tmp_path / "spans"
    table = run_figure_tail(loads=[120_000], duration_us=60_000.0,
                            warmup_us=15_000.0, export_dir=str(export))
    rows = {(r["policy"], r["span"]): r for r in table.rows}

    def share(policy):
        return rows[(policy, "socket_wait")]["gap_share_pct"]

    # the headline: SCAN-Avoid collapses socket_wait's share of the tail
    assert share("rss") > 2 * share("scan_avoid")
    assert share("rss") > 50.0
    # exports: one chrome trace + one analysis dict per policy/load
    for policy in ("rss", "scan_avoid"):
        trace = json.loads((export / f"spans_{policy}_120000.json").read_text())
        assert trace["traceEvents"]
        analysis = json.loads((export / f"tail_{policy}_120000.json").read_text())
        assert analysis["count"] > 0 and analysis["rows"]


def test_repro_cli_figure_tail(capsys, tmp_path):
    from repro.cli import main

    export = tmp_path / "artifacts"
    assert main(["figure_tail", "--loads", "60000", "--duration-ms", "40",
                 "--export-spans", str(export)]) == 0
    out = capsys.readouterr().out
    assert "Tail attribution" in out and "socket_wait" in out
    assert (export / "spans_rss_60000.json").exists()


# ----------------------------------------------------------------------
# OpenMetrics label escaping (repro.obs.export)
# ----------------------------------------------------------------------
def test_openmetrics_label_escaping_round_trip():
    from repro.obs.export import to_openmetrics
    from repro.obs.registry import MetricsRegistry

    reg = MetricsRegistry()
    nasty = 'app"with\\quotes\nand newline'
    reg.counter(nasty, "scope", "hits").inc(3)
    reg.histogram(nasty, "scope", "lat").observe(2.0)
    reg.sketch(nasty, "scope", "svc").observe(5.0)
    text = to_openmetrics(reg)
    assert '\\"' in text            # quote escaped
    assert "\\\\" in text           # backslash escaped
    assert "\\n" in text            # newline escaped
    escaped = 'app\\"with\\\\quotes\\nand newline'
    assert f'app="{escaped}"' in text
    # round-trip: unescaping the label value recovers the original
    import re

    match = re.search(r'app="((?:[^"\\]|\\.)*)"', text)
    assert match
    recovered = re.sub(
        r"\\(.)",
        lambda m: {"n": "\n", '"': '"', "\\": "\\"}[m.group(1)],
        match.group(1),
    )
    assert recovered == nasty
    # histogram bucket lines route through the same escaping
    bucket_lines = [l for l in text.splitlines() if "_bucket" in l]
    assert bucket_lines
    assert all(f'app="{escaped}"' in l for l in bucket_lines)
    assert any('le="+Inf"' in l for l in bucket_lines)
    # sketch summary quantile series route through the same escaping
    assert "# TYPE syrup_svc summary" in text
    quantile_lines = [l for l in text.splitlines() if "quantile=" in l]
    assert len(quantile_lines) == 3  # SUMMARY_QUANTILES
    assert all(f'app="{escaped}"' in l for l in quantile_lines)
    assert any('quantile="0.99"' in l for l in quantile_lines)
    assert 'syrup_svc_count{app="' in text and 'syrup_svc_sum{app="' in text
    # simple labels stay byte-identical to the historical format
    reg2 = MetricsRegistry()
    reg2.counter("rocksdb", "socket_select", "pass").inc()
    assert ('syrup_pass_total{app="rocksdb",scope="socket_select"} 1'
            in to_openmetrics(reg2))
