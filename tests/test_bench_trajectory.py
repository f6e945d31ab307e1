"""``BENCH_results.json`` is the committed perf trajectory: one record per
perf-claiming PR, copied from EXPERIMENTS.md's tables, appended and never
regenerated.  Pairs under ``exact_counts`` read ``[parent, change]``, and
every record names the commit it measured."""

import json
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).parent.parent


def test_trajectory_is_ordered_and_claims_name_the_benchmark():
    records = json.loads((REPO_ROOT / "BENCH_results.json").read_text())
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in contract["end_to_end"]}
    workloads = {w["name"] for w in contract["workloads"]}
    headings = {line.lstrip("# ") for line in
                (REPO_ROOT / "EXPERIMENTS.md").read_text().splitlines()
                if line.startswith("#")}
    prs = [record["pr"] for record in records]
    assert prs and prs == sorted(set(prs))
    for record in records:
        assert record["source"] in headings, record["pr"]
        # the format only: a shallow checkout cannot resolve old commits
        assert re.fullmatch(r"[0-9a-f]{7,40}", record.get("commit", "")), \
            record["pr"]
        claim = record.get("claim")
        assert claim or record.get("baseline"), record["pr"]
        if claim:
            assert claim["metric"] in metrics, record["pr"]
            assert claim["workload"] in workloads, record["pr"]
