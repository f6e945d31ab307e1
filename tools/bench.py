#!/usr/bin/env python
"""The ``sim_metrics`` gate: canonical scenarios, timed and fingerprinted.

The ROADMAP's "fast as the hardware allows" goal needs a trajectory:
every optimization PR must be able to prove a speedup against numbers a
previous PR recorded.  This harness runs the canonical simulation
scenarios — a Figure-6 steady-state point, the dynamic Figure-8 mid-run
policy switch, a Figure-2 hash-imbalance point, the fault sweep's
quarantine variant, the tail-attribution run with every request
span-traced, figure_order's SRPT queueing-discipline point,
figure_adaptive's closed-loop SignalBus run, figure_fleet's
rack-scale power-of-two steering run, figure_canary's shadow/canary
promotion pipeline, the figure6_steady workload rerun with the full
observability stack on, and figure_interference's blame-driven
tenant-shed run — times each ``machine.run()``, and writes
``BENCH_results.json``:

    {
      "schema_version": 1,
      "mode": "full" | "smoke",
      "scenarios": {
        "<name>": {
          "wall_s": ...,             # wall-clock seconds for machine.run()
          "sim_us": ...,             # simulated microseconds advanced
          "sim_us_per_wall_s": ...,  # the headline throughput number
          "events": ...,             # engine events dispatched
          "events_per_s": ...,
          "sim_metrics": {...}       # p99s / drops — a correctness anchor
        }, ...
      },
      "obs_overhead": {              # when figure6_steady + _obs both ran
        "base_wall_s": ..., "obs_wall_s": ...,
        "overhead_ratio": ...,       # obs wall over base wall, same seed
        "sim_metrics_match": true    # obs never perturbed the simulation
      }
    }

Wall-clock fields are single-shot and vary run to run — speed is
measured by ``benchmarks/perf/run.py``, which also attributes host time
per layer.  ``sim_metrics`` are seeded and exact: ``tools/bench_compare.py``
holding them equal to ``benchmarks/baseline.json`` is what proves a
refactor changed no behavior.  Validate any results document with
:func:`validate_results` (the tier-1 smoke test does); committed
documents recorded by earlier versions carry an extra per-scenario
``profile`` block, which still validates.

Every run (unless ``--no-history``) is also appended to the
``benchmarks/history/`` trajectory — one file per run, named by UTC
timestamp + git sha — so the perf record accumulates across PRs instead
of being overwritten.

Usage::

    python tools/bench.py                  # full scenarios
    python tools/bench.py --smoke          # seconds-fast variant (CI)
    python tools/bench.py --scenario figure6_steady --out -   # stdout
"""

import argparse
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.promote import STAGE_CODES             # noqa: E402
from repro import experiments                          # noqa: E402
from repro.experiments.runner import stage_point       # noqa: E402
from repro.obs.export import open_destination          # noqa: E402
from repro.obs.tail import critical_path               # noqa: E402
from repro.workload.mixes import GET_ONLY, GET_SCAN_995_005  # noqa: E402
from repro.workload.requests import GET, SCAN          # noqa: E402

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "DEFAULT_OUT",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "BenchSchemaError",
    "append_history",
    "main",
    "run_benchmarks",
    "validate_results",
]

SCHEMA_VERSION = 1
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_results.json")
DEFAULT_HISTORY_DIR = os.path.join(REPO_ROOT, "benchmarks", "history")


# ----------------------------------------------------------------------
# Scenarios: each builder picks the sizes, asks repro.experiments for
# the staged system (load scheduled, nothing run) and returns
# (system, collect) where collect() reads the sim metrics after the
# run.  The harness owns timing, so builders must not run.
# ----------------------------------------------------------------------
def _sizes(smoke, load, duration_us):
    """``(load, duration_us, warmup_us)`` from ``(smoke, full)`` pairs;
    the first 20% of every run is warmup."""
    duration_us = duration_us[0 if smoke else 1]
    return load[0 if smoke else 1], duration_us, duration_us * 0.2


def _figure6_steady(smoke, tenant=None, **telemetry):
    """Figure 6 steady state: SCAN Avoid under 99.5% GET / 0.5% SCAN."""
    load, duration_us, warmup_us = _sizes(
        smoke, (60_000, 150_000), (40_000.0, 300_000.0))
    testbed, gen = stage_point(
        lambda: experiments.figure6.testbed("scan_avoid", 3, **telemetry),
        load, GET_SCAN_995_005, duration_us, warmup_us,
        tenant=tenant,
    )

    def collect():
        return {
            "load_rps": load,
            "p99_us": gen.latency.p99(),
            "drop_pct": 100.0 * gen.drop_fraction(),
            "goodput_rps": gen.goodput_rps(duration_us),
        }

    return testbed.machine, collect


def _figure6_steady_obs(smoke):
    """The figure6_steady workload with the FULL observability stack on.

    Same load, mix, policy, and seed as ``figure6_steady`` but with
    metrics, the flight recorder, span sampling, streaming sketches,
    and per-tenant accounting (the generator tagged ``tenant="bench"``)
    all enabled.  Two purposes: (a) the shared ``p99_us`` / ``drop_pct``
    / ``goodput_rps`` sim metrics must equal ``figure6_steady``'s
    exactly — observability is measurement, never perturbation — and
    (b) the wall-clock ratio between the two scenarios is the measured
    cost of full observability, recorded as the results document's
    top-level ``obs_overhead`` block when both scenarios run.
    """
    machine, base_collect = _figure6_steady(
        smoke, tenant="bench",
        metrics=True, timeseries=5_000.0, spans=16, accounting=True,
    )

    def collect():
        ledger = machine.obs.acct.ledgers.get("bench")
        return {
            **base_collect(),
            "metric_series": len(machine.obs.registry.series()),
            "spans_sampled": machine.obs.spans.sampled,
            "tenant_completed": ledger.completed if ledger else 0,
            "tenant_wait_us": (
                round(ledger.total_wait_us(), 1) if ledger else 0.0
            ),
        }

    return machine, collect


def _figure8_dynamic(smoke):
    """Figure 8 dynamics: Vanilla -> SCAN Avoid deployed mid-run."""
    load, duration_us, _ = _sizes(
        smoke, (3_000, 6_000), (60_000.0, 600_000.0))
    testbed, gen = experiments.figure8.stage_dynamic(
        load=load, duration_us=duration_us, seed=5,
    )

    def collect():
        return {
            "load_rps": load,
            "get_p99_us": gen.latency.p99(tag=GET),
            "scan_p99_us": gen.latency.p99(tag=SCAN),
            "drop_pct": 100.0 * gen.drop_fraction(),
            "goodput_rps": gen.goodput_rps(duration_us),
        }

    return testbed.machine, collect


def _figure2_imbalance(smoke):
    """Figure 2 imbalance: Vanilla hash selection in the drop regime."""
    load, duration_us, warmup_us = _sizes(
        smoke, (150_000, 360_000), (40_000.0, 200_000.0))
    testbed, gen = stage_point(
        lambda: experiments.figure2.testbed("vanilla", 2),
        load, GET_ONLY, duration_us, warmup_us,
    )

    def collect():
        return {
            "load_rps": load,
            "p99_us": gen.latency.p99(),
            "drop_pct": 100.0 * gen.drop_fraction(),
            "goodput_rps": gen.goodput_rps(duration_us),
        }

    return testbed.machine, collect


def _figure_faults(smoke):
    """Fault sweep's quarantine variant: injected VmFaults vs lifecycle."""
    load, duration_us, warmup_us = _sizes(
        smoke, (60_000, 100_000), (40_000.0, 300_000.0))
    testbed, gen = stage_point(
        lambda: experiments.figure_faults.testbed("quarantine", 3),
        load, GET_SCAN_995_005, duration_us, warmup_us,
    )

    def collect():
        health_rows = testbed.machine.syrupd.health()
        return {
            "load_rps": load,
            "p99_us": gen.latency.p99(),
            "drop_pct": 100.0 * gen.drop_fraction(),
            "runtime_faults": sum(
                r.get("runtime_faults", 0) for r in health_rows
            ),
            "quarantined": sum(
                1 for r in health_rows if r["state"] == "quarantined"
            ),
        }

    return testbed.machine, collect


def _figure_tail(smoke):
    """Tail attribution's RSS point: every request span-traced."""
    load, duration_us, warmup_us = _sizes(
        smoke, (60_000, 120_000), (40_000.0, 300_000.0))
    testbed, gen = stage_point(
        lambda: experiments.figure_tail.testbed("rss", 7),
        load, GET_SCAN_995_005, duration_us, warmup_us,
    )

    def collect():
        trees = [
            t for t in testbed.machine.obs.spans.trees(complete=True)
            if t["start"] >= warmup_us
        ]
        analysis = critical_path(trees)
        shares = {
            row["span"]: 100.0 * row["gap_share"]
            for row in analysis["rows"]
        }
        return {
            "load_rps": load,
            "p99_us": gen.latency.p99(),
            "sampled_trees": len(trees),
            "socket_wait_gap_share_pct": shares.get("socket_wait", 0.0),
        }

    return testbed.machine, collect


def _figure_fleet(smoke):
    """figure_fleet's power-of-two point: a rack of aggregate machines.

    100 machines (40 in smoke) under a diurnal open-loop load from a
    million sampled users, power-of-two-choices steering at the ToR
    switch reading sync-bus-replicated load, and a mid-run machine kill
    (with reboot) exercising the failover path.
    """
    machines = 40 if smoke else 100
    rps, duration_us, warmup_us = _sizes(
        smoke, (450_000, 1_200_000), (40_000.0, 120_000.0))
    fleet = experiments.figure_fleet.stage_variant(
        "power_of_two", machines, rps, duration_us, warmup_us, 7,
    )

    def collect():
        return {
            "load_rps": rps,
            "machines": machines,
            "offered": fleet.generator.offered,
            "completed": fleet.completed,
            "dropped": fleet.dropped,
            "resteers": fleet.switch.resteers,
            "p99_us": fleet.latency.p99(),
        }

    return fleet, collect


def _figure_adaptive(smoke):
    """figure_adaptive's closed loop: SignalBus controllers past the knee.

    The adaptive variant at a load where the static policies violate the
    SLO — streaming sketches and SLO burn rates sampled every 2 ms of
    sim time, shed/threshold/blame controllers actuating through Maps.
    Exercises the whole signal plane (sketch updates per request, SLO
    bins, controller ticks).
    """
    load, duration_us, warmup_us = _sizes(
        smoke, (200_000, 280_000), (40_000.0, 300_000.0))
    testbed, gen, loop = experiments.figure_adaptive.stage_variant(
        "adaptive", load, duration_us, warmup_us, 3,
    )

    def collect():
        return {
            "load_rps": load,
            "get_p99_us": gen.latency.p99(tag=GET),
            "drop_pct": 100.0 * gen.drop_fraction(),
            "shed_level": loop["shed"].level,
            "srpt_thresh_us": loop["thresh_map"].lookup(0),
            "signal_ticks": testbed.machine.signals.ticks,
        }

    return testbed.machine, collect


def _figure_order_qdisc(smoke):
    """figure_order's SRPT point: the PIFO qdisc on every socket backlog."""
    load, duration_us, warmup_us = _sizes(
        smoke, (160_000, 240_000), (40_000.0, 300_000.0))
    testbed, gen = stage_point(
        lambda: experiments.figure_order.testbed("srpt_pifo", 3),
        load, GET_SCAN_995_005, duration_us, warmup_us,
    )

    def collect():
        rows = testbed.machine.syrupd.qdiscs()
        return {
            "load_rps": load,
            "get_p99_us": gen.latency.p99(tag=GET),
            "drop_pct": 100.0 * gen.drop_fraction(),
            "qdisc_enqueues": sum(r["enqueues"] for r in rows),
            "qdisc_drops": sum(
                r["sched_drops"] + r["overflow_drops"] for r in rows
            ),
        }

    return testbed.machine, collect


def _figure_canary_promotion(smoke):
    """figure_canary's promotion pipeline: shadow tap on the hot path.

    The broken candidate from figure_canary shadow-executes on every
    socket-qdisc rank decision (decision diff + cohort stamping), then
    enforces on the 10% flow cohort until the canary p99 gate rejects
    it.  Exercises the ShadowTap dispatch overhead, the controller's
    per-completion cohort sketches, and the SignalBus gauge publishing.
    ``outcome_stage`` anchors the verdict (3 == rejected at full scale;
    the smoke window ends mid-canary, 1).
    """
    load, duration_us, warmup_us = _sizes(
        smoke, (200_000, 260_000), (60_000.0, 300_000.0))
    testbed, gen, records, _states = experiments.figure_canary.stage_variant(
        [("broken", duration_us * 0.25)], load, duration_us, warmup_us, 3,
    )

    def collect():
        record = records[0]
        return {
            "load_rps": load,
            "get_p99_us": gen.latency.p99(tag=GET),
            "drop_pct": 100.0 * gen.drop_fraction(),
            "outcome_stage": STAGE_CODES[record.stage],
            "shadow_decisions": record.diff.decisions,
            "agreement": round(record.diff.agreement(), 4),
            "canary_enforced": record.canary_enforced,
        }

    return testbed.machine, collect


def _figure_interference_blame(smoke):
    """figure_interference's closed loop: blame-driven tenant shedding.

    Victim + identical-looking aggressor on one machine, per-tenant
    accounting charging every queueing span, the blame matrix fed on
    each dequeue, the NoisyNeighborDetector windowing it on the
    SignalBus cadence, and the TenantShedController actuating the
    per-tenant valve.  Exercises the whole attribution plane (ledger
    seams, occupancy mirrors, pro-rata blame splits).
    """
    victim = 60_000
    aggressor, duration_us, warmup_us = _sizes(
        smoke, (300_000, 420_000), (40_000.0, 200_000.0))
    testbed, gen_alpha, gen_bravo, detector = (
        experiments.figure_interference.stage_variant(
            "blame_shed", victim, aggressor, duration_us, warmup_us, seed=3,
        )
    )

    def collect():
        blame = testbed.machine.obs.acct.blame
        top = blame.top_aggressor("alpha")
        return {
            "victim_rps": victim,
            "aggressor_rps": aggressor,
            "alpha_p99_us": gen_alpha.latency.p99(tag=GET),
            "alpha_drop_pct": 100.0 * gen_alpha.drop_fraction(),
            "bravo_drop_pct": 100.0 * gen_bravo.drop_fraction(),
            "blame_cells": len(blame),
            "aggressor_share_pct": (
                round(100.0 * top[3], 2) if top is not None else 0.0
            ),
            "noisy_flags": len(detector.noisy),
        }

    return testbed.machine, collect


def _figure_oversub_elastic(smoke):
    """figure_oversub's elastic variant: the core-arbitration plane live.

    A ghOSt enclave (search) and CFS (batch) competing for the
    arbitrated pool under anti-correlated flash crowds, per-class
    pressure signals on the bus, and the ElasticCoreController moving
    cores — prices grants/revocations (CFS queue migration, ghost
    commit-epoch aborts) plus occupancy bookkeeping.
    """
    duration_us = 60_000.0 if smoke else 400_000.0
    machine, gen_search, gen_batch, _controller = (
        experiments.figure_oversub.stage_variant(
            "elastic", 25_000, 10.0, duration_us, duration_us * 0.1, seed=5,
        )
    )

    def collect():
        arbiter = machine.arbiter
        arbiter.settle()
        elapsed = max(machine.now, 1e-9)
        return {
            "search_p99_us": gen_search.latency.p99(),
            "batch_p99_us": gen_batch.latency.p99(),
            "search_drop_pct": 100.0 * gen_search.drop_fraction(),
            "batch_drop_pct": 100.0 * gen_batch.drop_fraction(),
            "core_moves": arbiter.moves,
            "search_occ_cores": arbiter.occupancy_us("search") / elapsed,
            "batch_occ_cores": arbiter.occupancy_us("batch") / elapsed,
        }

    return machine, collect


SCENARIOS = {
    "figure6_steady": _figure6_steady,
    "figure6_steady_obs": _figure6_steady_obs,
    "figure_interference_blame": _figure_interference_blame,
    "figure8_dynamic": _figure8_dynamic,
    "figure2_imbalance": _figure2_imbalance,
    "figure_adaptive_loop": _figure_adaptive,
    "figure_faults_quarantine": _figure_faults,
    "figure_tail_spans": _figure_tail,
    "figure_order_qdisc": _figure_order_qdisc,
    "figure_fleet_steering": _figure_fleet,
    "figure_canary_promotion": _figure_canary_promotion,
    "figure_oversub_elastic": _figure_oversub_elastic,
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_benchmarks(names=None, smoke=False, echo=print):
    """Run and time scenarios; returns the results document."""
    names = list(names) if names else sorted(SCENARIOS)
    scenarios = {}
    for name in names:
        builder = SCENARIOS[name]
        machine, collect = builder(smoke)
        engine = machine.engine
        sim_before, events_before = engine.now, engine.events_dispatched
        wall_before = time.perf_counter()
        machine.run()
        wall_s = time.perf_counter() - wall_before
        sim_us = engine.now - sim_before
        events = engine.events_dispatched - events_before
        row = scenarios[name] = {
            "wall_s": wall_s,
            "sim_us": sim_us,
            "sim_us_per_wall_s": sim_us / wall_s if wall_s > 0 else 0.0,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "sim_metrics": collect(),
        }
        echo(
            f"{name}: wall {row['wall_s']:.3f}s, "
            f"{row['sim_us_per_wall_s']:,.0f} sim-us/wall-s, "
            f"{row['events_per_s']:,.0f} events/s"
        )
    results = {
        "schema_version": SCHEMA_VERSION,
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "created_unix": time.time(),
        "scenarios": scenarios,
    }
    overhead = _obs_overhead(scenarios)
    if overhead is not None:
        results["obs_overhead"] = overhead
        echo(
            f"obs_overhead: {overhead['overhead_ratio']:.3f}x wall "
            f"(sim_metrics_match={overhead['sim_metrics_match']})"
        )
    return results


#: sim metrics the base and full-obs figure6 scenarios must agree on —
#: the executable form of "observability never perturbs the simulation".
_OBS_SHARED_METRICS = ("load_rps", "p99_us", "drop_pct", "goodput_rps")


def _obs_overhead(scenarios):
    """The observability cost block, when both figure6 variants ran.

    ``overhead_ratio`` is full-obs wall time over base wall time for
    the *identical* seeded workload (>1 means obs costs that factor);
    ``sim_metrics_match`` asserts the shared latency/drop/goodput
    metrics are exactly equal — the no-perturbation guarantee measured,
    not assumed.  Returns None unless both scenarios are present.
    """
    base = scenarios.get("figure6_steady")
    obs = scenarios.get("figure6_steady_obs")
    if base is None or obs is None:
        return None
    match = all(
        base["sim_metrics"].get(key) == obs["sim_metrics"].get(key)
        for key in _OBS_SHARED_METRICS
    )
    return {
        "base_wall_s": base["wall_s"],
        "obs_wall_s": obs["wall_s"],
        "overhead_ratio": (
            obs["wall_s"] / base["wall_s"] if base["wall_s"] > 0 else 0.0
        ),
        "sim_metrics_match": match,
    }


# ----------------------------------------------------------------------
# History: the accumulating perf trajectory (benchmarks/history/)
# ----------------------------------------------------------------------
def _git_sha():
    """Short HEAD sha, or ``"nogit"`` outside a repository."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "nogit"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "nogit"


def append_history(results, history_dir=DEFAULT_HISTORY_DIR, sha=None):
    """Append one results document to the perf trajectory.

    ``BENCH_results.json`` is overwritten every run; the trajectory the
    ROADMAP asks for lives in ``history_dir`` instead — one file per
    run, named ``<UTC-timestamp>_<git-sha>.json`` so entries sort
    chronologically and each one pins the commit it measured.  The sha
    is also recorded inside the document (``git_sha``).  Returns the
    path written.
    """
    sha = sha if sha is not None else _git_sha()
    stamp = time.strftime(
        "%Y%m%dT%H%M%SZ", time.gmtime(results["created_unix"])
    )
    os.makedirs(history_dir, exist_ok=True)
    entry = dict(results)
    entry["git_sha"] = sha
    path = os.path.join(history_dir, f"{stamp}_{sha}.json")
    suffix = 1
    while os.path.exists(path):  # same commit, same second: still append
        path = os.path.join(history_dir, f"{stamp}_{sha}.{suffix}.json")
        suffix += 1
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# Schema validation (no external jsonschema dependency)
# ----------------------------------------------------------------------
class BenchSchemaError(ValueError):
    """A BENCH_results.json document violates the expected schema."""


_TOP_FIELDS = {
    "schema_version": int,
    "mode": str,
    "python": str,
    "platform": str,
    "created_unix": (int, float),
    "scenarios": dict,
}
_SCENARIO_FIELDS = {
    "wall_s": (int, float),
    "sim_us": (int, float),
    "sim_us_per_wall_s": (int, float),
    "events": int,
    "events_per_s": (int, float),
    "sim_metrics": dict,
}
_PROFILE_FIELDS = {
    "wall_s": (int, float),
    "inclusive_s": (int, float),
    "calls": int,
}
_OBS_OVERHEAD_FIELDS = {
    "base_wall_s": (int, float),
    "obs_wall_s": (int, float),
    "overhead_ratio": (int, float),
    "sim_metrics_match": bool,
}


def _require(doc, fields, origin):
    for field, kind in fields.items():
        if field not in doc:
            raise BenchSchemaError(f"{origin}: missing field {field!r}")
        if not isinstance(doc[field], kind):
            raise BenchSchemaError(
                f"{origin}.{field}: expected {kind}, "
                f"got {type(doc[field]).__name__}"
            )


def validate_results(doc):
    """Validate a results document; raises BenchSchemaError, returns doc."""
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"document must be a dict, got {type(doc).__name__}")
    _require(doc, _TOP_FIELDS, "results")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise BenchSchemaError(
            f"schema_version {doc['schema_version']} != {SCHEMA_VERSION}"
        )
    if doc["mode"] not in ("full", "smoke"):
        raise BenchSchemaError(f"mode must be full|smoke, got {doc['mode']!r}")
    if not doc["scenarios"]:
        raise BenchSchemaError("scenarios must be non-empty")
    for name, row in doc["scenarios"].items():
        origin = f"scenarios[{name!r}]"
        if not isinstance(row, dict):
            raise BenchSchemaError(f"{origin}: expected dict")
        _require(row, _SCENARIO_FIELDS, origin)
        if row["wall_s"] <= 0 or row["sim_us"] <= 0 or row["events"] <= 0:
            raise BenchSchemaError(
                f"{origin}: wall_s/sim_us/events must be positive"
            )
        # Optional: committed history entries recorded by earlier
        # versions of this tool carry a per-section wall-clock block.
        for section, record in row.get("profile", {}).items():
            _require(record, _PROFILE_FIELDS, f"{origin}.profile[{section!r}]")
        for metric, value in row["sim_metrics"].items():
            if not isinstance(value, (int, float)):
                raise BenchSchemaError(
                    f"{origin}.sim_metrics[{metric!r}]: expected a number, "
                    f"got {type(value).__name__}"
                )
    overhead = doc.get("obs_overhead")
    if overhead is not None:
        _require(overhead, _OBS_OVERHEAD_FIELDS, "obs_overhead")
        if overhead["base_wall_s"] <= 0 or overhead["obs_wall_s"] <= 0:
            raise BenchSchemaError(
                "obs_overhead: base_wall_s/obs_wall_s must be positive"
            )
        if not isinstance(overhead["sim_metrics_match"], bool):
            raise BenchSchemaError(
                "obs_overhead.sim_metrics_match: expected a bool"
            )
    return doc


# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench",
        description=(
            "Run and time the canonical Syrup simulation scenarios and "
            "write BENCH_results.json."
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-fast variant of every scenario (CI smoke test)",
    )
    parser.add_argument(
        "--scenario", action="append", choices=sorted(SCENARIOS),
        default=None, help="run only this scenario (repeatable)",
    )
    parser.add_argument(
        "--out", type=str, default=DEFAULT_OUT,
        help="output path for the results JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--history-dir", type=str, default=DEFAULT_HISTORY_DIR,
        metavar="DIR",
        help="where the per-run trajectory accumulates",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip appending this run to the history trajectory",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks(
        names=args.scenario, smoke=args.smoke,
        echo=lambda msg: print(msg, file=sys.stderr),
    )
    validate_results(results)
    destination = sys.stdout if args.out == "-" else args.out
    with open_destination(destination) as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.out != "-":
        print(f"wrote {args.out}", file=sys.stderr)
    if not args.no_history:
        path = append_history(results, history_dir=args.history_dir)
        print(f"appended {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
