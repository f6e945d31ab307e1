#!/usr/bin/env python3
"""The repository benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py [--workload W]... [--seed N]
        [--seconds S | --rounds R] [--trace 0|1|both] [--quick]

Untraced rounds (``--trace 0``) give the end-to-end metrics: the selected
workloads run round-robin, one fresh single-threaded child process per
run and strictly one at a time, until each workload has ``--seconds`` of
timed ``run()`` behind it (or exactly ``--rounds`` rounds).  A traced run
(``--trace 1``) repeats each workload once under ``cProfile`` and folds
the table into this repository's layers.  ``both``, the default, does one
after the other.  Names, units, directions and bounds come from
``BENCHMARK.json``; README.md says why each workload and metric exists.

Every run's simulated outputs are checked (conservation, regime guards,
bit-identical fingerprints across rounds and under tracing); a breach
counts that run's requests as failed and the command exits non-zero.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
NO_PERTURBATION_PAIR = ("control_loop", "control_loop_plain")


def run_child(workload, seed, quick=False, profile=False):
    """One run in a fresh interpreter: the child's document, or a record
    with ``crashed`` set to the tail of its standard error."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed)]
    if quick:
        command.append("--quick")
    if profile:
        command.append("--profile")
    # One thread (numpy's BLAS pool would otherwise start idle workers),
    # and bytecode cached under out/ whatever the caller's environment
    # says, so set-up time is what a user's second run pays.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.perf_counter()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT)
        error = done.stderr if done.returncode else None
    except subprocess.TimeoutExpired:
        error = f"no result within {CHILD_TIMEOUT_S} s"
    if error is not None:
        return {"crashed": error.strip()[-2000:],
                "wall_s": time.perf_counter() - started}
    sys.stderr.write(done.stderr)      # the child's warnings
    return json.loads(done.stdout.splitlines()[-1])


def canonical(fingerprint):
    """Fingerprints compare as text, so a NaN percentile equals itself."""
    return json.dumps(fingerprint, sort_keys=True)


class WorkloadReport:
    """Everything one invocation learns about one workload."""

    def __init__(self, name):
        self.name = name
        self.timed = []         # child documents of the untraced rounds
        self.first = None       # the first run that did not crash
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}       # name -> value
        self.notes = {}         # name -> how the value was taken
        self.absent = []        # counters whose public attribute is gone
        self.trace = None       # the folded profile, for trace_<name>.json

    def account(self, run, label):
        """Book one run's requests as attempted — and as failed, all of
        them, when it crashed, broke an output check, or its fingerprint
        differs from the first run's.  Returns whether the run is good."""
        if self.first is None and "crashed" not in run:
            self.first = run
        offered = self.first["offered"] if self.first else 1
        self.attempted += offered
        if "crashed" in run:
            problems = [f"crashed: {run['crashed']}"]
        elif canonical(run["fingerprint"]) != canonical(
                self.first["fingerprint"]):
            problems = ["simulated fingerprint differs from the first run "
                        "of this seed"]
        else:
            problems = run["breaches"]
        if problems:
            self.failed += offered
            self.problems += [f"{label}: {text}" for text in problems]
        return not problems


# ----------------------------------------------------------------------
# Untraced rounds: the end-to-end metrics
# ----------------------------------------------------------------------
def timed_rounds(reports, seed, quick, seconds, rounds):
    """Round-robin over the workloads, so a slow stretch of the machine
    hits one round of each instead of every round of one."""
    active = list(reports)
    number = 0
    while active:
        number += 1
        for report in list(active):
            run = run_child(report.name, seed, quick)
            good = report.account(run, f"round {number}")
            if good:
                report.timed.append(run)
            measured_s = sum(r["wall_s"] for r in report.timed)
            if not good or (number >= rounds if rounds
                            else measured_s >= seconds):
                active.remove(report)
            print(f"  round {number} {report.name}: run() "
                  f"{run['wall_s']:.3f} s" + ("" if good else " FAILED"),
                  file=sys.stderr)


def spread(values):
    """Interquartile range as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(report):
    """Medians over the rounds, in seconds of the reference machine: the
    child scales every step of the run by the machine's speed at that
    moment (child.py), and set-up, too short to carry its own yardstick,
    by the speed over the run that followed it."""
    runs = report.timed
    if not runs:
        return
    speeds = [run["sim_us"] / run["reference_s"] for run in runs]
    raw = [run["sim_us"] / run["wall_s"] for run in runs]
    machine = [run["reference_s"] / run["wall_s"] for run in runs]
    setups = [run["setup_s"] * speed for run, speed in zip(runs, machine)]
    report.metrics["sim_us_per_wall_s"] = statistics.median(speeds)
    report.notes["sim_us_per_wall_s"] = (
        f"median of {len(runs)}, IQR {spread(speeds):.1%}; uncorrected "
        f"best {max(raw):.1f}, median {statistics.median(raw):.1f}, IQR "
        f"{spread(raw):.1%}; machine speed {min(machine):.2f}-"
        f"{max(machine):.2f} of reference")
    report.metrics["setup_s"] = statistics.median(setups)
    report.notes["setup_s"] = (
        f"median of {len(runs)}, IQR {spread(setups):.1%}; uncorrected "
        f"min {min(run['setup_s'] for run in runs):.4f}")
    report.metrics["peak_rss_mb"] = statistics.median(
        run["peak_rss_mb"] for run in runs)
    report.notes["peak_rss_mb"] = f"median of {len(runs)}"


def check_no_perturbation(report, seed):
    """The extra telemetry tiers only observe: switching them off must not
    change one simulated output of the control loop (one tenth-size pair;
    the flight recorder's own sampling events are host work, not output)."""
    outputs = []
    for name in NO_PERTURBATION_PAIR:
        run = run_child(name, seed, quick=True)
        if "crashed" in run:
            outputs.append(f"{name} crashed: {run['crashed']}")
        else:
            run["fingerprint"].pop("events")
            outputs.append(canonical(run["fingerprint"]))
    if outputs[0] != outputs[1]:
        report.problems.append(
            "timeseries/spans/accounting changed the simulated outputs: "
            f"{outputs[0]} != {outputs[1]}")
        offered = report.first["offered"] if report.first else 1
        report.attempted += offered
        report.failed += offered


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------
def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def traced_run(report, seed, quick):
    """One run under cProfile, set against an untraced one: the first
    timed round if there was one, else one made here."""
    if not report.timed:
        run = run_child(report.name, seed, quick)
        if report.account(run, "untraced run"):
            report.timed.append(run)
    traced = run_child(report.name, seed, quick, profile=True)
    if not report.account(traced, "traced run") or not report.timed:
        return
    plain = report.timed[0]
    if traced["counters"] != plain["counters"]:
        report.problems.append("tracing changed the public counters")
        report.failed += traced["offered"]

    req = traced["offered"]
    report.trace = dict(traced["trace"], requests=req,
                        traced_wall_s=traced["wall_s"],
                        traced_calls=traced["traced_calls"])
    layers = traced["trace"]["layers"]
    metrics = report.metrics
    for layer, row in layers.items():
        metrics[f"{layer}.self_us_per_req"] = row["self_s"] * 1e6 / req
        metrics[f"{layer}.calls_per_req"] = row["calls"] / req

    # A counter this workload has no probe for, or whose public attribute
    # is gone (None, warned about by the child), reads 0.
    report.absent = sorted(name for name, value in plain["counters"].items()
                           if value is None)

    def count(name):
        return plain["counters"].get(name) or 0

    calls = traced["traced_calls"]
    host_s = statistics.median(run["reference_s"] for run in report.timed)
    wall_s = statistics.median(run["wall_s"] for run in report.timed)
    deploys = calls["redeploys"] + calls["qdisc_deploys"]
    metrics.update({
        "sim.events_per_req": count("events") / req,
        "sim.events_per_wall_s": count("events") / host_s,
        "net.rx_packets_per_req": count("rx_packets") / req,
        "kernel.netstack.delivered_per_req": count("delivered") / req,
        "kernel.sockets.drop_frac": ratio(
            count("socket_drops"),
            count("socket_enqueued") + count("socket_drops")),
        "core.hooks.decisions_per_req": calls["hook_decisions"] / req,
        "ebpf.run.invocations_per_req": calls["program_runs"] / req,
        "ebpf.run.interp_share": ratio(calls["interpreted_runs"],
                                       calls["program_runs"]),
        "ebpf.load.deploys": deploys,
        "ebpf.load.us_per_deploy": ratio(
            (layers["ebpf.load"]["self_s"]
             + layers["core.syrupd"]["self_s"]) * 1e6, deploys),
        "core.maps.userspace_ops_per_req": count("userspace_map_ops") / req,
        "qdisc.enqueues_per_req": count("qdisc_enqueues") / req,
        "ghost.msgs_per_req": count("ghost_messages") / req,
        "ghost.commits_per_req": count("ghost_commits") / req,
        "ghost.failed_commit_frac": ratio(
            count("ghost_failed_commits"),
            count("ghost_commits") + count("ghost_failed_commits")),
        "core.signals.ticks": count("signal_ticks"),
        "obs.spans.sampled": count("spans_sampled"),
        "obs.registry.series": count("registry_series"),
        "cluster.resteers": count("resteers"),
        "host.gc_gen0_per_kreq": plain["gc_collections"][0] * 1000.0 / req,
        "host.gc_s": plain["gc_s"],
        "host.trace_overhead_ratio": traced["wall_s"] / wall_s,
        "other.self_share": layers["other"]["self_share"],
    })


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_report(report, wanted):
    print(f"\n== {report.name} ==")
    for metric in wanted:
        name = metric["name"]
        if name not in report.metrics:
            print(f"  {name:<36} {'missing':>16}")
            continue
        bound = f"  bound {metric['bound']:.0%}" if "bound" in metric else ""
        note = f"  ({report.notes[name]})" if name in report.notes else ""
        print(f"  {name:<36} {report.metrics[name]:>16.6f} "
              f"{metric['unit']:<13} {metric['better']:<6}{bound}{note}")
    print(f"  ops_attempted {report.attempted}  ops_failed {report.failed}")
    if report.absent:
        print(f"  absent counters, reported as 0: {report.absent}")
    if report.first:
        print("  sim_fingerprint:")
        for key, value in sorted(report.first["fingerprint"].items()):
            print(f"    {key} = {value!r}")
    for problem in report.problems:
        print(f"  FAILED CHECK: {problem}")


def write_results(reports, args, total_s):
    OUT.mkdir(exist_ok=True)
    document = {
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "total_wall_s": total_s,
        "workloads": {},
    }
    for report in reports:
        document["workloads"][report.name] = {
            "metrics": report.metrics,
            "notes": report.notes,
            "ops_attempted": report.attempted,
            "ops_failed": report.failed,
            "problems": report.problems,
            "absent_counters": report.absent,
            "sim_fingerprint": report.first and report.first["fingerprint"],
            "counters": report.first and report.first["counters"],
            "rounds": [{key: run[key] for key in
                        ("wall_s", "reference_s", "sim_us", "setup_s",
                         "peak_rss_mb", "gc_collections", "gc_s")}
                       for run in report.timed],
        }
        if report.trace:
            (OUT / f"trace_{report.name}.json").write_text(json.dumps(
                dict(report.trace, workload=report.name, seed=args.seed),
                indent=1))
    (OUT / "results.json").write_text(json.dumps(document, indent=1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=3,
                        help="the only input to the generators")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed run() seconds per workload")
    parser.add_argument("--rounds", type=int,
                        help="exactly this many rounds, whatever they take")
    parser.add_argument("--trace", choices=("0", "1", "both"),
                        default="both")
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size workloads for the self-test; "
                             "never for reported numbers")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: no program to measure under {ROOT / 'src'}")

    started = time.perf_counter()
    reports = [WorkloadReport(name) for name in args.workload or known]
    wanted = []
    if args.trace != "1":
        wanted += spec["end_to_end"]
        timed_rounds(reports, args.seed, args.quick, args.seconds,
                     args.rounds)
        for report in reports:
            end_to_end(report)
            if report.name == NO_PERTURBATION_PAIR[0]:
                check_no_perturbation(report, args.seed)
    if args.trace != "0":
        wanted += spec["per_layer"]
        for report in reports:
            traced_run(report, args.seed, args.quick)
    total_s = time.perf_counter() - started

    write_results(reports, args, total_s)
    for report in reports:
        print_report(report, wanted)
    print(f"\ntotal wall {total_s:.1f} s; details in {OUT}")

    # One workload: metric names as BENCHMARK.json has them.  Several:
    # prefixed with the workload, so the one object holds them all.
    correct = True
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report.name}."
        correct &= not report.problems
        for metric in wanted:
            if metric["name"] in report.metrics:
                metrics[prefix + metric["name"]] = {
                    "value": report.metrics[metric["name"]],
                    "unit": metric["unit"]}
            else:
                correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report.attempted for report in reports),
        "failed": sum(report.failed for report in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
