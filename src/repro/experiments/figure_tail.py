"""Tail attribution: where do the p99's microseconds go, RSS vs SCAN-Avoid?

Not a paper figure — a causal-span companion to Figure 6's headline
claim.  Under hash (RSS-style) socket selection, a GET that lands behind
a SCAN in the same socket waits out the scan inside ``socket_wait``; the
SCAN-Avoid policy segregates scans onto dedicated sockets, so the p99
cohort stops being "GETs stuck behind scans" and its gap over the p50
stops being socket-wait-dominated.

This harness runs both policies with span tracing on
(:class:`repro.obs.spans.SpanTracer`), feeds the sampled request trees to
:func:`repro.obs.tail.critical_path`, and emits one row per
``(policy, load, span)`` with the p50-cohort mean, p99-cohort mean, and
each span's share of the p50→p99 gap.  Expect ``socket_wait``'s
``gap_share_pct`` to collapse under ``scan_avoid`` relative to ``rss``.

``export_dir`` (CLI ``--export-spans DIR``) additionally writes, per
policy/load point, the Chrome-traceable span file
(``spans_<policy>_<load>.json`` — load in Perfetto or chrome://tracing)
and the raw analysis dict (``tail_<policy>_<load>.json``).
"""

import json
import os

from repro.core.hooks import Hook
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.obs.tail import critical_path
from repro.policies.builtin import SCAN_AVOID
from repro.stats.results import Table
from repro.workload.mixes import GET_SCAN_995_005

__all__ = ["DEFAULT_LOADS", "POLICIES", "run_figure_tail", "testbed"]

DEFAULT_LOADS = [60_000, 120_000]

#: "rss" is the vanilla kernel's hash-based socket selection (the RSS
#: analogue); "scan_avoid" deploys the paper's SCAN Avoid policy at the
#: Socket Select hook.
POLICIES = {
    "rss": None,
    "scan_avoid": (SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
}


def testbed(name, seed=7, sample_every=1, spans_capacity=1 << 18,
            **overrides):
    """A fresh span-traced RocksDB testbed under the named policy.

    ``sample_every=N`` keeps every Nth request (head sampling).
    ``overrides`` are further :class:`RocksDbTestbed` keywords (thread
    count, metrics).
    """
    return RocksDbTestbed(
        policy=POLICIES[name], seed=seed, mark_scans=True,
        spans=sample_every, spans_capacity=spans_capacity, **overrides,
    )


def run_figure_tail(
    loads=None,
    duration_us=300_000.0,
    warmup_us=60_000.0,
    num_threads=6,
    seed=7,
    policies=None,
    sample_every=1,
    spans_capacity=1 << 18,
    export_dir=None,
):
    """Return the per-span p50/p99 cohort table; optionally export traces.

    ``sample_every=N`` keeps every Nth request (head sampling); trees
    that *start* during warmup are excluded from the analysis, mirroring
    the latency recorder's warmup window.
    """
    loads = loads or DEFAULT_LOADS
    names = policies or list(POLICIES)
    table = Table(
        "Tail attribution: p50 vs p99 critical path (RSS vs SCAN-Avoid)",
        ["policy", "load_rps", "span", "p50_mean_us", "p99_mean_us",
         "gap_us", "gap_share_pct"],
    )
    if export_dir:
        os.makedirs(export_dir, exist_ok=True)
    for name in names:
        for load in loads:
            staged, _gen = run_point(
                lambda: testbed(name, seed, sample_every, spans_capacity,
                                num_threads=num_threads),
                load, GET_SCAN_995_005, duration_us, warmup_us,
            )
            tracer = staged.machine.obs.spans
            assert tracer is not None  # staged with spans on
            trees = [
                t for t in tracer.trees(complete=True)
                if t["start"] >= warmup_us
            ]
            analysis = critical_path(trees)
            for row in analysis["rows"]:
                table.add(
                    policy=name,
                    load_rps=load,
                    span=row["span"],
                    p50_mean_us=row["lo_mean_us"],
                    p99_mean_us=row["hi_mean_us"],
                    gap_us=row["gap_us"],
                    gap_share_pct=100.0 * row["gap_share"],
                )
            if export_dir:
                stem = f"{name}_{load}"
                trace_path = os.path.join(export_dir, f"spans_{stem}.json")
                tracer.to_chrome_trace(trace_path)
                tail_path = os.path.join(export_dir, f"tail_{stem}.json")
                with open(tail_path, "w") as fh:
                    json.dump(analysis, fh, indent=2, sort_keys=True)
    return table
