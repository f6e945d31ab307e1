"""The behaviour gate: twelve canonical scenarios, pinned bit for bit.

Every simulation is seeded, so what a scenario computes is a property of
the code alone.  Each of the twelve below stages one ``repro.experiments``
scenario at a seconds-fast size, runs it once and compares with ``==``
against the committed golden ``benchmarks/baseline.json``: the engine
``events`` dispatched, the ``sim_us`` advanced and every ``sim_metrics``
field (p99s, drops, controller state — what the scenario's figure reports).
A refactor that changes no behaviour changes no number; anything else
fails by name.  Speed is ``python3 benchmarks/perf/run.py``, not this.

Regenerate the golden only for a change that is *meant* to move a value
(say which and why in the same commit)::

    PYTHONPATH=src python tests/test_golden_scenarios.py
"""

import copy
import functools
import json
import pathlib

import pytest

from repro import experiments
from repro.core.promote import STAGE_CODES
from repro.experiments.runner import stage_point
from repro.obs.tail import critical_path
from repro.workload.mixes import GET_ONLY, GET_SCAN_995_005
from repro.workload.requests import GET, SCAN

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "benchmarks/baseline.json"


def run(system):
    """Run a staged system; the engine events and sim time it took."""
    engine = system.engine
    sim_before, events_before = engine.now, engine.events_dispatched
    system.run()
    return {"events": engine.events_dispatched - events_before,
            "sim_us": engine.now - sim_before}


def point(figure, variant, seed, load, mix=GET_SCAN_995_005, tenant=None,
          **telemetry):
    """Stage one 40 ms load point (the first 8 ms warmup) on ``figure``'s
    testbed; ``(testbed, gen)``, nothing run."""
    return stage_point(lambda: figure.testbed(variant, seed, **telemetry),
                       load, mix, 40_000.0, 8_000.0, tenant=tenant)


# Each scenario stages a system through repro.experiments, runs it and reads
# its sim metrics.  Sizes read load, duration_us, warmup_us (the first 20%).
def _figure6(**tenant_and_telemetry):
    testbed, gen = point(experiments.figure6, "scan_avoid", 3, 60_000,
                         **tenant_and_telemetry)
    return testbed.machine, dict(run(testbed.machine), sim_metrics={
        "load_rps": 60_000,
        "p99_us": gen.latency.p99(),
        "drop_pct": 100.0 * gen.drop_fraction(),
        "goodput_rps": gen.goodput_rps(40_000.0),
    })


def _figure6_steady():
    """Figure 6 steady state: SCAN Avoid under 99.5% GET / 0.5% SCAN."""
    return _figure6()[1]


def _figure6_steady_obs():
    """figure6_steady, same seed, with every telemetry tier on: metrics,
    flight recorder, span sampling, sketches, per-tenant accounting."""
    machine, row = _figure6(tenant="bench", metrics=True, timeseries=5_000.0,
                            spans=16, accounting=True)
    ledger = machine.obs.acct.ledgers["bench"]
    row["sim_metrics"].update(
        metric_series=len(machine.obs.registry.series()),
        spans_sampled=machine.obs.spans.sampled,
        tenant_completed=ledger.completed,
        tenant_wait_us=round(ledger.total_wait_us(), 1),
    )
    return row


def _figure8_dynamic():
    """Figure 8 dynamics: Vanilla -> SCAN Avoid deployed mid-run."""
    testbed, gen = experiments.figure8.stage_dynamic(
        load=3_000, duration_us=60_000.0, seed=5,
    )
    return dict(run(testbed.machine), sim_metrics={
        "load_rps": 3_000,
        "get_p99_us": gen.latency.p99(tag=GET),
        "scan_p99_us": gen.latency.p99(tag=SCAN),
        "drop_pct": 100.0 * gen.drop_fraction(),
        "goodput_rps": gen.goodput_rps(60_000.0),
    })


def _figure2_imbalance():
    """Figure 2 imbalance: Vanilla hash selection in the drop regime."""
    testbed, gen = point(experiments.figure2, "vanilla", 2, 150_000, GET_ONLY)
    return dict(run(testbed.machine), sim_metrics={
        "load_rps": 150_000,
        "p99_us": gen.latency.p99(),
        "drop_pct": 100.0 * gen.drop_fraction(),
        "goodput_rps": gen.goodput_rps(40_000.0),
    })


def _figure_faults_quarantine():
    """Fault sweep's quarantine variant: injected VmFaults vs lifecycle."""
    testbed, gen = point(experiments.figure_faults, "quarantine", 3, 60_000)
    counts = run(testbed.machine)
    rows = testbed.machine.syrupd.health()
    return dict(counts, sim_metrics={
        "load_rps": 60_000,
        "p99_us": gen.latency.p99(),
        "drop_pct": 100.0 * gen.drop_fraction(),
        "runtime_faults": sum(r.get("runtime_faults", 0) for r in rows),
        "quarantined": sum(r["state"] == "quarantined" for r in rows),
    })


def _figure_tail_spans():
    """Tail attribution's RSS point: every request span-traced."""
    testbed, gen = point(experiments.figure_tail, "rss", 7, 60_000)
    counts = run(testbed.machine)
    trees = [t for t in testbed.machine.obs.spans.trees(complete=True)
             if t["start"] >= 8_000.0]
    gap = {r["span"]: r["gap_share"] for r in critical_path(trees)["rows"]}
    return dict(counts, sim_metrics={
        "load_rps": 60_000,
        "p99_us": gen.latency.p99(),
        "sampled_trees": len(trees),
        "socket_wait_gap_share_pct": 100.0 * gap.get("socket_wait", 0.0),
    })


def _figure_fleet_steering():
    """figure_fleet's power-of-two point: 40 aggregate machines behind a
    ToR, diurnal open-loop load, a mid-run machine kill with reboot."""
    fleet = experiments.figure_fleet.stage_variant(
        "power_of_two", 40, 450_000, 40_000.0, 8_000.0, 7,
    )
    return dict(run(fleet), sim_metrics={
        "load_rps": 450_000,
        "machines": 40,
        "offered": fleet.generator.offered,
        "completed": fleet.completed,
        "dropped": fleet.dropped,
        "resteers": fleet.switch.resteers,
        "p99_us": fleet.latency.p99(),
    })


def _figure_adaptive_loop():
    """figure_adaptive's closed loop past the knee: sketches and SLO burn
    rates on the SignalBus, shed/threshold controllers acting via Maps."""
    testbed, gen, loop = experiments.figure_adaptive.stage_variant(
        "adaptive", 200_000, 40_000.0, 8_000.0, 3,
    )
    return dict(run(testbed.machine), sim_metrics={
        "load_rps": 200_000,
        "get_p99_us": gen.latency.p99(tag=GET),
        "drop_pct": 100.0 * gen.drop_fraction(),
        "shed_level": loop["shed"].level,
        "srpt_thresh_us": loop["thresh_map"].lookup(0),
        "signal_ticks": testbed.machine.signals.ticks,
    })


def _figure_order_qdisc():
    """figure_order's SRPT point: the PIFO qdisc on every socket backlog."""
    testbed, gen = point(experiments.figure_order, "srpt_pifo", 3, 160_000)
    counts = run(testbed.machine)
    rows = testbed.machine.syrupd.qdiscs()
    return dict(counts, sim_metrics={
        "load_rps": 160_000,
        "get_p99_us": gen.latency.p99(tag=GET),
        "drop_pct": 100.0 * gen.drop_fraction(),
        "qdisc_enqueues": sum(r["enqueues"] for r in rows),
        "qdisc_drops": sum(r["sched_drops"] + r["overflow_drops"]
                           for r in rows),
    })


def _figure_canary_promotion():
    """figure_canary's pipeline: the broken candidate shadows every rank
    decision, then enforces on the 10% cohort; the window ends mid-canary."""
    testbed, gen, records, _states = experiments.figure_canary.stage_variant(
        [("broken", 15_000.0)], 200_000, 60_000.0, 12_000.0, 3,
    )
    counts = run(testbed.machine)
    record = records[0]
    return dict(counts, sim_metrics={
        "load_rps": 200_000,
        "get_p99_us": gen.latency.p99(tag=GET),
        "drop_pct": 100.0 * gen.drop_fraction(),
        "outcome_stage": STAGE_CODES[record.stage],
        "shadow_decisions": record.diff.decisions,
        "agreement": round(record.diff.agreement(), 4),
        "canary_enforced": record.canary_enforced,
    })


def _figure_interference_blame():
    """figure_interference's closed loop: victim + aggressor, the blame
    matrix windowed by the detector, the shed controller on the valve."""
    stage = experiments.figure_interference.stage_variant
    testbed, gen_alpha, gen_bravo, detector = stage(
        "blame_shed", 60_000, 300_000, 40_000.0, 8_000.0, seed=3,
    )
    counts = run(testbed.machine)
    blame = testbed.machine.obs.acct.blame
    return dict(counts, sim_metrics={
        "victim_rps": 60_000,
        "aggressor_rps": 300_000,
        "alpha_p99_us": gen_alpha.latency.p99(tag=GET),
        "alpha_drop_pct": 100.0 * gen_alpha.drop_fraction(),
        "bravo_drop_pct": 100.0 * gen_bravo.drop_fraction(),
        "blame_cells": len(blame),
        "aggressor_share_pct": round(
            100.0 * blame.top_aggressor("alpha")[3], 2),
        "noisy_flags": len(detector.noisy),
    })


def _figure_oversub_elastic():
    """figure_oversub's elastic variant: a ghOSt enclave and CFS competing
    for the arbitrated pool, the ElasticCoreController moving cores."""
    stage = experiments.figure_oversub.stage_variant
    machine, gen_search, gen_batch, _controller = stage(
        "elastic", 25_000, 10.0, 60_000.0, 6_000.0, seed=5,
    )
    counts = run(machine)
    arbiter = machine.arbiter
    arbiter.settle()
    elapsed = machine.now
    return dict(counts, sim_metrics={
        "search_p99_us": gen_search.latency.p99(),
        "batch_p99_us": gen_batch.latency.p99(),
        "search_drop_pct": 100.0 * gen_search.drop_fraction(),
        "batch_drop_pct": 100.0 * gen_batch.drop_fraction(),
        "core_moves": arbiter.moves,
        "search_occ_cores": arbiter.occupancy_us("search") / elapsed,
        "batch_occ_cores": arbiter.occupancy_us("batch") / elapsed,
    })


SCENARIOS = {fn.__name__[1:]: fn for fn in (
    _figure2_imbalance, _figure6_steady, _figure6_steady_obs,
    _figure8_dynamic, _figure_adaptive_loop, _figure_canary_promotion,
    _figure_faults_quarantine, _figure_fleet_steering,
    _figure_interference_blame, _figure_order_qdisc,
    _figure_oversub_elastic, _figure_tail_spans,
)}


@functools.lru_cache(maxsize=None)
def run_scenario(name):
    """A scenario's ``{events, sim_us, sim_metrics}``; one run per process."""
    return SCENARIOS[name]()


def _flat(row):
    return {"events": row["events"], "sim_us": row["sim_us"],
            **{f"sim_metrics.{k}": v for k, v in row["sim_metrics"].items()}}


def mismatches(golden, fresh):
    """``(scenario, field, expected, got)`` for every golden value that
    ``fresh`` does not reproduce exactly; a scenario missing from ``fresh``
    is one row with ``field`` None, one only in ``fresh`` does not gate."""
    rows = []
    for name, want in sorted(golden.items()):
        if name not in fresh:
            rows.append((name, None, want, None))
            continue
        want, got = _flat(want), _flat(fresh[name])
        rows += [
            (name, field, want.get(field), got.get(field))
            for field in sorted(set(want) | set(got))
            if want.get(field) != got.get(field)
        ]
    return rows


def render(doc):
    """The golden file's one canonical text form."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert mismatches({name: golden[name]}, {name: run_scenario(name)}) == []


def test_observability_does_not_perturb_the_simulation():
    """Every tier on, same seed: the figure's numbers are the dark run's."""
    base = run_scenario("figure6_steady")["sim_metrics"]
    lit = run_scenario("figure6_steady_obs")["sim_metrics"]
    assert lit["tenant_completed"] > 0 and lit["spans_sampled"] > 0
    for key in ("load_rps", "p99_us", "drop_pct", "goodput_rps"):
        assert lit[key] == base[key], key


def test_golden_file_is_exactly_the_projection():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(SCENARIOS) and len(golden) == 12
    for name, row in golden.items():
        assert sorted(row) == ["events", "sim_metrics", "sim_us"], name
    assert GOLDEN_PATH.read_text() == render(golden)


def test_gate_reports_each_kind_of_change_by_name():
    fresh = json.loads(GOLDEN_PATH.read_text())
    extra = dict(fresh, figure_new=fresh["figure8_dynamic"])
    assert mismatches(fresh, extra) == []     # only the golden's names gate
    p99 = fresh["figure6_steady"]["sim_metrics"]["p99_us"]
    events = fresh["figure8_dynamic"]["events"]
    golden = copy.deepcopy(fresh)
    golden["figure6_steady"]["sim_metrics"]["p99_us"] = p99 + 1e-9
    golden["figure8_dynamic"]["events"] = events + 1
    golden["figure_gone"] = fresh["figure2_imbalance"]
    del golden["figure_tail_spans"]["sim_metrics"]["load_rps"]
    assert mismatches(golden, fresh) == [
        ("figure6_steady", "sim_metrics.p99_us", p99 + 1e-9, p99),
        ("figure8_dynamic", "events", events + 1, events),
        ("figure_gone", None, fresh["figure2_imbalance"], None),
        ("figure_tail_spans", "sim_metrics.load_rps", None, 60_000),
    ]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render({n: fn() for n, fn in SCENARIOS.items()}))
