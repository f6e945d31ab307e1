"""Self-test of the benchmark harness (``python -m pytest benchmarks/perf -q``).

Not part of the tier-1 suite (``testpaths`` stays ``tests``): it starts
about twenty tenth-size child processes and takes roughly half a minute.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import fold  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*arguments):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *arguments],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}
        assert UNIT.fullmatch(metric["unit"]), (name, metric["unit"])
        assert isinstance(metric["value"], (int, float))
    return result, done.stdout


def names(section):
    return [metric["name"] for metric in SPEC[section]]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    every = WORKLOADS + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every))
    assert all(NAME.fullmatch(name) for name in every)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = SPEC["end_to_end"][names("end_to_end").index("setup_s")]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # Two names per layer the fold knows, so BENCHMARK.json and the layer
    # map cannot drift apart.
    for layer in fold.LAYERS:
        assert f"{layer}.self_us_per_req" in names("per_layer")
        assert f"{layer}.calls_per_req" in names("per_layer")


def test_default_command_end_to_end():
    """All five workloads, round-robin, timed then traced."""
    result, text = run_benchmark("--rounds", "2")
    expected = {f"{workload}.{name}" for workload in WORKLOADS
                for name in names("end_to_end") + names("per_layer")}
    assert set(result["metrics"]) == expected
    for workload in WORKLOADS:
        assert f"== {workload} ==" in text
        trace = json.loads(
            (HERE / "out" / f"trace_{workload}.json").read_text())
        total = sum(row["self_s"] for row in trace["layers"].values())
        assert total == pytest.approx(trace["total_self_s"], rel=0.01)
    assert re.search(r"^total wall \d", text, re.MULTILINE)
    # Every end-to-end metric is a measurement, never zero.
    for name, metric in result["metrics"].items():
        if name.split(".", 1)[1] in names("end_to_end"):
            assert metric["value"] > 0, name


@pytest.mark.parametrize("trace, section",
                         [("0", "end_to_end"), ("1", "per_layer")])
def test_one_workload_as_the_driver_runs_it(trace, section):
    result, _ = run_benchmark("--workload", "fleet_rack", "--seed", "5",
                              "--seconds", "0.5", "--trace", trace)
    assert list(result["metrics"]) == names(section)
    units = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == units


def test_exits_non_zero_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark's files."""
    target = tmp_path / "benchmarks" / "perf"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "fleet_rack", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
# The fold, on a synthetic pstats table
# ----------------------------------------------------------------------
def entry(calls, self_s, inclusive_s, callers=None):
    return (calls, calls, self_s, inclusive_s, callers or {})


def edge(calls, self_s, inclusive_s):
    return (calls, calls, self_s, inclusive_s)


def test_fold_on_a_synthetic_table():
    run = ("/x/src/repro/sim/engine.py", 120, "run")
    decide = ("/x/src/repro/core/hooks.py", 177, "decide")
    jitted = ("<jit:scan_avoid>", 1, "schedule")
    schedule = ("/x/src/repro/sim/engine.py", 80, "at")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    expo = ("/usr/lib/python3.11/random.py", 500, "expovariate")
    log = ("~", 0, "<built-in method math.log>")
    arrival = ("/x/src/repro/workload/generator.py", 115, "_arrival")
    fresh = ("/x/src/repro/brand_new/module.py", 1, "work")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        run: entry(1, 1.0, 10.0),
        decide: entry(10, 2.0, 3.0, {run: edge(10, 2.0, 3.0)}),
        jitted: entry(10, 1.0, 1.0, {decide: edge(10, 1.0, 1.0)}),
        arrival: entry(5, 0.5, 2.0, {run: edge(5, 0.5, 2.0)}),
        schedule: entry(8, 0.4, 1.0, {arrival: edge(5, 0.25, 0.6),
                                      decide: edge(3, 0.15, 0.4)}),
        # a built-in called from one layer only
        heappush: entry(8, 0.6, 0.6, {schedule: edge(8, 0.6, 0.6)}),
        # standard-library Python, and a built-in under it: both are
        # billed to the repro layer at the top of the chain
        expo: entry(5, 0.3, 0.5, {arrival: edge(5, 0.3, 0.5)}),
        log: entry(5, 0.2, 0.2, {expo: edge(5, 0.2, 0.2)}),
        fresh: entry(2, 0.7, 0.7, {run: edge(2, 0.7, 0.7)}),
        orphan: entry(1, 0.1, 0.1),
    }
    folded = fold.fold(stats)
    total = sum(row[2] for row in stats.values())
    assert folded.total_self_s == pytest.approx(total)
    assert sum(folded.self_s.values()) == pytest.approx(total, rel=0.01)
    assert folded.self_s["sim"] == pytest.approx(1.0 + 0.4 + 0.6)
    assert folded.self_s["core.hooks"] == pytest.approx(2.0)
    assert folded.self_s["ebpf.run"] == pytest.approx(1.0)
    assert folded.self_s["workload"] == pytest.approx(0.5 + 0.3 + 0.2)
    assert folded.self_s["other"] == pytest.approx(0.7 + 0.1)
    # Calls count a layer's own functions only.
    assert folded.calls["sim"] == 1 + 8
    assert folded.calls["ebpf.run"] == 10
    assert folded.calls["workload"] == 5
    assert folded.calls["other"] == 2
    # Cross-layer edges carry calls and inclusive seconds.
    assert folded.edges[("core.hooks", "ebpf.run")] == [10, 1.0]
    assert folded.edges[("workload", "sim")] == [5, 0.6]
    assert ("sim", "sim") not in folded.edges
    assert fold.calls_to(stats, "core/hooks.py", "decide") == 10
    assert fold.calls_to(stats, "core/hooks.py", "gone") == 0


def test_layer_map_is_prefix_based():
    assert fold.own_layer("/a/src/repro/obs/tail.py") == "obs.spans"
    assert fold.own_layer("/a/src/repro/kernel/arbiter.py") == "kernel.sched"
    assert fold.own_layer("/a/src/repro/kernel/new.py") == "other"
    assert fold.own_layer("<jit:anything>") == "ebpf.run"
    assert fold.own_layer("/usr/lib/python3.11/heapq.py") is None
    assert fold.own_layer("~") is None


# ----------------------------------------------------------------------
# Refactor-proofing: the harness touches only public names
# ----------------------------------------------------------------------
def private(name):
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize(
    "path", sorted(HERE.glob("*.py")), ids=lambda path: path.name)
def test_no_underscore_names(path):
    """No ``_attr`` read and no ``_name`` imported, anywhere in the
    benchmark's own files — later PRs may move private code freely."""
    offences = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and private(node.attr):
            offences.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            offences += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if any(private(part) for part in alias.name.split("."))
            ]
    assert not offences, offences
