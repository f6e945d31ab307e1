"""Tests for the observability layer (repro.obs + syrupctl stats).

Covers metric semantics (counter/gauge; sketches in test_sketch.py),
label-cardinality enforcement, the no-op disabled mode, the event-trace
ring, end-to-end instrumentation of a deployed SOCKET_SELECT policy, the
determinism contract (metrics on/off gives identical results), ghOSt
agent counters, and the syrupctl rendering surface.
"""

import json

import pytest

from conftest import Clock
from repro import Hook, Machine, set_a
from repro.apps.rocksdb import RocksDbServer
from repro.core.syrupd import IsolationError
from repro.ebpf.errors import VerifierError
from repro.obs import (
    CardinalityError,
    EventTrace,
    MetricsRegistry,
    Observability,
)
from repro.policies.builtin import SCAN_AVOID
from repro.syrupctl import (
    VIEWS,
    build_parser,
    render_events,
    render_stats,
    stage_view,
)
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_SCAN_995_005


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_counter_semantics():
    clock = Clock()
    reg = MetricsRegistry(clock=clock)
    c = reg.counter("app", "hook", "x")
    assert c.value == 0 and c.updated_at is None
    c.inc()
    clock.now = 5.0
    c.inc(3)
    assert c.value == 4
    assert c.updated_at == 5.0
    # same key returns the same object
    assert reg.counter("app", "hook", "x") is c
    assert reg.value("app", "hook", "x") == 4
    assert reg.value("app", "hook", "missing") is None


def test_gauge_semantics():
    reg = MetricsRegistry()
    g = reg.gauge("app", "hook", "size")
    g.set(42)
    g.set(7)
    assert g.value == 7


def test_registry_kinds_are_counter_gauge_and_sketch():
    # every distribution is a Sketch: there is no second quantile kind
    assert set(MetricsRegistry._KINDS) == {"counter", "gauge", "sketch"}


def test_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("a", "b", "c")
    with pytest.raises(TypeError):
        reg.gauge("a", "b", "c")


def test_cardinality_cap():
    reg = MetricsRegistry(max_series=3)
    for i in range(3):
        reg.counter("app", "hook", f"m{i}")
    reg.counter("app", "hook", "m0")  # existing series: fine
    with pytest.raises(CardinalityError):
        reg.counter("app", "hook", "m3")


def test_cardinality_cap_error_is_diagnosable():
    reg = MetricsRegistry(max_series=2)
    reg.counter("app", "hook", "ok")
    reg.sketch("app", "maps", "lat")
    with pytest.raises(CardinalityError) as excinfo:
        reg.gauge("app", "hook", "overflow")
    # the error names the limit and the offending key
    message = str(excinfo.value)
    assert "2" in message and "overflow" in message
    # the registry stays usable: existing series unharmed, no partial entry
    assert len(reg) == 2
    assert reg.get("app", "hook", "overflow") is None
    reg.counter("app", "hook", "ok").inc()
    assert reg.value("app", "hook", "ok") == 1
    # CardinalityError is a RuntimeError, catchable generically
    assert issubclass(CardinalityError, RuntimeError)


def test_snapshot_rows_are_json_safe_and_sorted():
    reg = MetricsRegistry(clock=Clock(1.5))
    reg.counter("b", "s", "n").inc()
    reg.gauge("a", "s", "g").set(2)
    reg.sketch("a", "s", "h").observe(3.0)
    rows = reg.snapshot()
    assert [r["app"] for r in rows] == ["a", "a", "b"]
    json.dumps(rows)  # must not raise
    kinds = {r["metric"]: r["kind"] for r in rows}
    assert kinds == {"n": "counter", "g": "gauge", "h": "sketch"}
    assert reg.values_for("a", "s")["g"] == 2


# ----------------------------------------------------------------------
# Disabled mode: a tier that is off is None
# ----------------------------------------------------------------------
def test_null_registry_noops():
    # A dark machine holds no registry, so no metric group resolves:
    # hook counters, program counters and map counters are all None.
    assert Observability().registry is None
    assert Observability().snapshot() == []
    machine = Machine(set_a(), seed=1)
    app = machine.register_app("rocksdb", ports=[8080])
    RocksDbServer(machine, app, 8080, 4, mark_scans=True)
    deployed = app.deploy_policy(SCAN_AVOID, Hook.SOCKET_SELECT,
                                 constants={"NUM_THREADS": 4})
    attachment = machine.syrupd._sites[Hook.SOCKET_SELECT].attachments_for(
        "rocksdb")[0]
    assert attachment.m_sched is None and attachment.m_fault is None
    assert deployed.program.metrics is None
    scan_map = machine.syrupd.registry.open(app.map_path("scan_map"),
                                            "rocksdb")
    assert scan_map._metrics is None
    assert machine.syrupd.status()[0].keys().isdisjoint({"metrics"})


def test_null_events_noops():
    # A dark machine holds no event trace; its views say so or are empty.
    machine = Machine(set_a(), seed=1)
    assert machine.obs.events is None
    assert "observability disabled" in render_events(machine)
    args = build_parser().parse_args(["events"])
    assert VIEWS["events"][1](machine, args) == []


def test_machine_defaults_to_disabled_observability():
    machine = Machine(set_a(), seed=1)
    obs = machine.obs
    assert (obs.registry, obs.events, obs.recorder, obs.spans, obs.acct,
            obs.probe, machine.signals) == (None,) * 7
    assert not hasattr(obs, "enabled")


# ----------------------------------------------------------------------
# Event trace
# ----------------------------------------------------------------------
def test_event_ring_bounds_and_export(tmp_path):
    clock = Clock()
    trace = EventTrace(clock=clock, capacity=4)
    for i in range(6):
        clock.now = float(i)
        trace.emit("decision", app="a", hook="h", value=i)
    assert len(trace) == 4
    assert trace.emitted == 6
    assert trace.dropped == 2
    values = [e["value"] for e in trace.events()]
    assert values == [2, 3, 4, 5]  # oldest overwritten
    assert [e["value"] for e in trace.tail(2)] == [4, 5]
    out = tmp_path / "events.jsonl"
    assert trace.to_jsonl(out) == 4
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["kind"] == "decision" and lines[0]["ts"] == 2.0


def test_event_filtering():
    trace = EventTrace()
    trace.emit("deploy", app="a")
    trace.emit("decision", app="a")
    trace.emit("decision", app="b")
    assert len(trace.events(kind="decision")) == 2
    assert len(trace.events(kind="decision", app="b")) == 1
    trace.clear()
    assert len(trace) == 0


# ----------------------------------------------------------------------
# End-to-end: a deployed SOCKET_SELECT policy increments its counters
# ----------------------------------------------------------------------
def _busy_machine(metrics):
    machine = Machine(set_a(), seed=101, metrics=metrics)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6, mark_scans=True)
    app.deploy_policy(SCAN_AVOID, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    gen = OpenLoopGenerator(machine, 8080, 60_000, GET_SCAN_995_005,
                            duration_us=20_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    return machine, gen


def test_deployed_policy_increments_hook_counters():
    machine, _gen = _busy_machine(metrics=True)
    reg = machine.obs.registry
    sched = reg.value("rocksdb", "socket_select", "schedule_calls")
    assert sched > 0
    # SCAN Avoid always returns an executor index
    assert reg.value("rocksdb", "socket_select", "steer") == sched
    assert reg.value("rocksdb", "socket_select", "pass") == 0
    assert reg.value("rocksdb", "socket_select", "drop") == 0
    # PASS/DROP totals + steer account for every schedule() call
    outcomes = sum(
        reg.value("rocksdb", "socket_select", name)
        for name in ("pass", "drop", "steer", "index_miss")
    )
    assert outcomes == sched
    # program-level counters from the VM/JIT dispatch path
    assert reg.value("rocksdb", "socket_select", "invocations") == sched
    assert reg.value("rocksdb", "socket_select", "insns_interp") > 0
    assert reg.value("rocksdb", "socket_select", "jit_runs") > 0
    # the server's userspace map traffic is metered
    assert reg.value("rocksdb", "maps", "scan_map.updates") > 0
    # control plane
    assert reg.value("rocksdb", "syrupd", "deploys") == 1
    # sim-time stamps
    metric = reg.get("rocksdb", "socket_select", "schedule_calls")
    assert 0.0 < metric.updated_at <= machine.now
    # decision events recorded with the schema fields
    decisions = machine.obs.events.events(kind="decision", app="rocksdb")
    assert decisions
    event = decisions[-1]
    assert event["hook"] == "socket_select"
    assert event["port"] == 8080
    assert event["outcome"] == "steer"
    assert 0.0 < event["ts"] <= machine.now


def test_metrics_do_not_change_results():
    """The determinism contract: metrics on/off is observationally inert."""
    _m_off, gen_off = _busy_machine(metrics=False)
    _m_on, gen_on = _busy_machine(metrics=True)
    assert gen_off.latency.p99() == gen_on.latency.p99()
    assert gen_off.latency.count == gen_on.latency.count


def test_status_rows_carry_metrics_when_enabled():
    machine, _gen = _busy_machine(metrics=True)
    row = machine.syrupd.status()[0]
    assert row["metrics"]["schedule_calls"] > 0
    machine_off, _gen = _busy_machine(metrics=False)
    assert "metrics" not in machine_off.syrupd.status()[0]


def test_isolation_denial_counted():
    machine, _gen = _busy_machine(metrics=True)
    with pytest.raises(IsolationError):
        machine.register_app("intruder", ports=[8080])
    reg = machine.obs.registry
    assert reg.value("(root)", "syrupd", "isolation_denials") == 1
    denials = machine.obs.events.events(kind="isolation_denial")
    assert denials and "8080" in denials[0]["detail"]


def test_verifier_rejection_counted():
    machine = Machine(set_a(), seed=5, metrics=True)
    app = machine.register_app("bad", ports=[9000])
    bad_policy = """
def schedule(pkt):
    return load_u64(pkt, 0)    # unguarded load: verifier must reject
"""
    with pytest.raises(VerifierError):
        app.deploy_policy(bad_policy, Hook.SOCKET_SELECT)
    assert machine.obs.registry.value("bad", "syrupd",
                                      "verifier_rejections") == 1
    assert machine.obs.events.events(kind="verifier_reject")


def test_ghost_agent_counters():
    from collections import deque

    from repro.config import CostModel
    from repro.ghost.agent import GhostAgent
    from repro.ghost.enclave import Enclave
    from repro.ghost.sched import GhostScheduler
    from repro.kernel.cpu import Core
    from repro.kernel.threads import KThread
    from repro.sim.engine import Engine

    class ListSource:
        def __init__(self, items):
            self.items = deque(items)

        def pull(self):
            return self.items.popleft() if self.items else None

        def complete(self, token):
            pass

    class Fifo:
        def schedule(self, status):
            return [
                (t, c.cid)
                for t, c in zip(status.runnable, status.idle_cores())
            ]

    eng = Engine()
    reg = MetricsRegistry(clock=eng)
    events = EventTrace(clock=eng)
    metrics = {
        name: reg.counter("ghostapp", "thread_sched", name)
        for name in ("messages", "preemptions", "commits",
                     "failed_commits", "policy_errors")
    }
    cores = [Core(i) for i in range(2)]
    costs = CostModel(ctx_switch_us=1.0, ghost_msg_us=0.5,
                      ghost_commit_us=1.0, ghost_ipi_us=2.0)
    sched = GhostScheduler(eng, cores, costs)
    enclave = Enclave("ghostapp")
    agent = GhostAgent(eng, sched, enclave, Fifo(), costs,
                       metrics=metrics, events=events)
    for tid in range(2):
        thread = KThread(tid=tid, app="ghostapp")
        thread.source = ListSource([(10.0, f"w{tid}")])
        enclave.register(thread)
        sched.attach(thread)
        thread.wake()
    eng.run()
    assert agent.commits >= 2
    assert reg.value("ghostapp", "thread_sched", "messages") > 0
    assert reg.value("ghostapp", "thread_sched", "commits") == agent.commits


# ----------------------------------------------------------------------
# syrupctl surface
# ----------------------------------------------------------------------
def test_render_stats_disabled_message():
    machine = Machine(set_a(), seed=1)
    assert "observability disabled" in render_stats(machine)


def test_render_stats_enabled_table():
    machine, _gen = _busy_machine(metrics=True)
    text = render_stats(machine)
    assert "syrup stats" in text
    assert "schedule_calls" in text
    assert "rocksdb" in text
    assert "socket_select" in text
    assert "events:" in text


def test_stats_demo_and_cli(capsys, tmp_path):
    from repro.syrupctl import main as syrupctl_main

    machine = stage_view(build_parser().parse_args(
        ["stats", "--load", "40000", "--duration-ms", "10", "--seed", "2"]
    ))
    machine.run()
    assert machine.obs.registry.value(
        "rocksdb", "socket_select", "schedule_calls") > 0
    out = tmp_path / "events.jsonl"
    rc = syrupctl_main([
        "stats", "--load", "40000", "--duration-ms", "10",
        "--export-events", str(out),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "schedule_calls" in captured.out
    assert out.exists() and out.read_text().strip()


def test_repro_cli_stats_subcommand(capsys):
    from repro.cli import main as cli_main

    rc = cli_main(["stats", "--loads", "40000", "--duration-ms", "10"])
    assert rc == 0
    assert "schedule_calls" in capsys.readouterr().out


def test_openmetrics_export_format():
    from repro.obs.export import to_openmetrics

    reg = MetricsRegistry()
    reg.counter("rocksdb", "socket_select", "schedule_calls").inc(7)
    reg.gauge("rocksdb", "syrupd", "prog_n_insns").set(42)
    h = reg.sketch("rocksdb", "maps", "op-latency")  # '-' needs sanitizing
    h.observe(0.5)
    h.observe(3.0)
    text = to_openmetrics(reg)
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    assert ("syrup_schedule_calls_total"
            '{app="rocksdb",scope="socket_select"} 7') in lines
    assert 'syrup_prog_n_insns{app="rocksdb",scope="syrupd"} 42' in lines
    # metric names are sanitized into the OpenMetrics grammar
    assert "# TYPE syrup_op_latency summary" in lines
    for q, value in ((0.5, 0.5), (0.99, 3.0)):
        estimate = h.quantile(q)
        assert estimate == pytest.approx(value, rel=0.01)  # alpha
        assert (f'syrup_op_latency{{app="rocksdb",scope="maps",'
                f'quantile="{q}"}} {estimate}') in lines
    assert not any("_bucket" in line or ",le=" in line for line in lines)
    assert 'syrup_op_latency_count{app="rocksdb",scope="maps"} 2' in lines
    assert 'syrup_op_latency_sum{app="rocksdb",scope="maps"} 3.5' in lines
    # every exposition line belongs to a # TYPE'd family
    assert lines[0].startswith("# TYPE ")


def test_write_openmetrics_accepts_path_and_file(tmp_path):
    import io

    from repro.obs.export import write_openmetrics

    reg = MetricsRegistry()
    reg.counter("a", "s", "n").inc()
    path = tmp_path / "metrics.prom"
    n_lines = write_openmetrics(reg, path)
    text = path.read_text()
    assert text.endswith("# EOF\n")
    assert n_lines == text.count("\n")
    # same contract with an open file object: written to, left open
    buf = io.StringIO()
    write_openmetrics(reg, buf)
    assert buf.getvalue() == text


def test_to_jsonl_accepts_path_and_file(tmp_path):
    """S2: every exporter takes a path or an open file object."""
    import io

    trace = EventTrace(clock=Clock(1.0))
    trace.emit("decision", verdict="PASS")
    path = tmp_path / "events.jsonl"
    assert trace.to_jsonl(path) == 1
    from_path = path.read_text()
    buf = io.StringIO()
    assert trace.to_jsonl(buf) == 1
    assert buf.getvalue() == from_path
    assert json.loads(from_path)["kind"] == "decision"


def test_open_destination_contract(tmp_path):
    import io

    from repro.obs.export import open_destination

    path = tmp_path / "out.txt"
    with open_destination(path) as fh:
        fh.write("via path\n")
    assert path.read_text() == "via path\n"
    buf = io.StringIO()
    with open_destination(buf) as fh:
        assert fh is buf
        fh.write("via file\n")
    buf.write("still open\n")  # caller keeps ownership; not closed
    assert buf.getvalue() == "via file\nstill open\n"


def test_observability_handle_repr():
    enabled = Observability(enabled=True)
    assert "enabled" in repr(enabled)
    assert "disabled" in repr(Observability())
