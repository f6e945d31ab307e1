"""Tier-1 smoke of tools/bench.py: the perf harness must stay runnable.

Runs ``--smoke`` end-to-end (all three canonical scenarios), validates
the written results document against the schema, and exercises the
schema checker's rejection paths.
"""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
TOOL = REPO_ROOT / "tools" / "bench.py"

spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def smoke_results(bench_dir):
    """One --smoke run shared by the assertions below (it costs seconds)."""
    out = bench_dir / "BENCH_results.json"
    assert bench.main([
        "--smoke", "--out", str(out),
        "--history-dir", str(bench_dir / "history"),
    ]) == 0
    with open(out) as fh:
        return json.load(fh)


def test_smoke_covers_all_scenarios(smoke_results):
    assert set(smoke_results["scenarios"]) == set(bench.SCENARIOS)
    assert len(smoke_results["scenarios"]) >= 3
    assert smoke_results["mode"] == "smoke"


def test_smoke_results_validate(smoke_results):
    assert bench.validate_results(smoke_results) is smoke_results


def test_smoke_rows_are_plausible(smoke_results):
    for name, row in smoke_results["scenarios"].items():
        assert row["wall_s"] > 0, name
        assert row["sim_us"] > 0, name
        assert row["events"] > 0, name
        assert row["sim_us_per_wall_s"] == pytest.approx(
            row["sim_us"] / row["wall_s"]
        )
        assert row["events_per_s"] == pytest.approx(
            row["events"] / row["wall_s"]
        )
        assert row["sim_metrics"], name


def test_figure8_scenario_metrics(smoke_results):
    metrics = smoke_results["scenarios"]["figure8_dynamic"]["sim_metrics"]
    # the dynamic scenario reports both request classes
    assert metrics["get_p99_us"] > 0
    assert metrics["scan_p99_us"] > metrics["get_p99_us"]


def test_history_appends_trajectory(smoke_results, bench_dir):
    """Each run lands one sha-stamped, schema-valid file in history/."""
    entries = sorted((bench_dir / "history").glob("*.json"))
    assert len(entries) == 1
    stamp, _, sha = entries[0].stem.partition("_")
    assert len(stamp) == 16 and stamp.endswith("Z")  # YYYYMMDDTHHMMSSZ
    assert sha  # short git sha, or "nogit" outside a checkout
    with open(entries[0]) as fh:
        entry = json.load(fh)
    assert entry["git_sha"] == sha
    assert bench.validate_results(entry)
    assert entry["scenarios"].keys() == smoke_results["scenarios"].keys()
    # a second run appends rather than overwrites
    second = dict(smoke_results, created_unix=smoke_results["created_unix"] + 1)
    bench.append_history(second, history_dir=str(bench_dir / "history"))
    assert len(sorted((bench_dir / "history").glob("*.json"))) == 2


def test_repo_history_entries_validate_if_present():
    """Committed trajectory entries must match the current schema."""
    entries = sorted((REPO_ROOT / "benchmarks" / "history").glob("*.json"))
    for path in entries:
        with open(path) as fh:
            doc = json.load(fh)
        bench.validate_results(doc)
        assert "git_sha" in doc, path.name


def test_scenario_selection():
    doc = bench.run_benchmarks(
        names=["figure8_dynamic"], smoke=True, echo=lambda _msg: None
    )
    assert list(doc["scenarios"]) == ["figure8_dynamic"]
    bench.validate_results(doc)


def test_validate_rejects_bad_documents(smoke_results):
    with pytest.raises(bench.BenchSchemaError):
        bench.validate_results([])
    with pytest.raises(bench.BenchSchemaError):
        bench.validate_results({})
    good = json.loads(json.dumps(smoke_results))

    bad = json.loads(json.dumps(good))
    bad["schema_version"] = 99
    with pytest.raises(bench.BenchSchemaError, match="schema_version"):
        bench.validate_results(bad)

    bad = json.loads(json.dumps(good))
    bad["mode"] = "partial"
    with pytest.raises(bench.BenchSchemaError, match="mode"):
        bench.validate_results(bad)

    bad = json.loads(json.dumps(good))
    bad["scenarios"] = {}
    with pytest.raises(bench.BenchSchemaError, match="non-empty"):
        bench.validate_results(bad)

    bad = json.loads(json.dumps(good))
    del bad["scenarios"]["figure8_dynamic"]["wall_s"]
    with pytest.raises(bench.BenchSchemaError, match="wall_s"):
        bench.validate_results(bad)

    bad = json.loads(json.dumps(good))
    bad["scenarios"]["figure8_dynamic"]["sim_us"] = -1.0
    with pytest.raises(bench.BenchSchemaError, match="positive"):
        bench.validate_results(bad)

    bad = json.loads(json.dumps(good))
    bad["scenarios"]["figure8_dynamic"]["sim_metrics"]["get_p99_us"] = "fast"
    with pytest.raises(bench.BenchSchemaError, match="number"):
        bench.validate_results(bad)


def test_repo_results_file_validates_if_present():
    """A committed BENCH_results.json must match the current schema."""
    path = REPO_ROOT / "BENCH_results.json"
    if not path.exists():
        pytest.skip("no BENCH_results.json committed")
    with open(path) as fh:
        bench.validate_results(json.load(fh))
