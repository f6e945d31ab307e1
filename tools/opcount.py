#!/usr/bin/env python
"""Calls per request per layer: ``cProfile`` over one benchmark workload.

The repository benchmark (``benchmarks/perf/run.py --trace 1``) reports
calls per request per layer next to its timings, from a full benchmark
round.  This tool gives the same exact counts alone and quickly: it
stages one of the benchmark's five workloads exactly as the benchmark
does (``benchmarks/perf/workloads.py``), runs it once under
``cProfile``, and folds the table into layers with the benchmark's own
``fold.fold`` (``fold.own_layer`` over ``fold.LAYERS``; imported, not
copied).  It also prints ``sim.events_per_req``, the engine events a
request costs.

Every number is a count, not a time: for a given workload, seed and
Python minor version it repeats exactly, on any machine.  A re-added
frame on a layer's path, or an engine event a request no longer needs,
shows up here as a change in the second decimal.

Out of the benchmark's contract: nothing here is compared by the driver.

Usage::

    python tools/opcount.py --workload rocksdb_steady --quick
    python tools/opcount.py --workload ghost_cross_layer --quick --seed 4
"""

import argparse
import cProfile
import gc
import os
import pstats
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(REPO_ROOT, "benchmarks", "perf"),
              os.path.join(REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import fold        # noqa: E402  (benchmarks/perf/fold.py)
import workloads   # noqa: E402  (benchmarks/perf/workloads.py)


def measure(name, seed, quick):
    """Run one workload under cProfile; returns ``(calls, events,
    offered)``: calls per layer (``fold.LAYERS`` order), the engine's
    dispatched events and the requests offered."""
    staged = workloads.WORKLOADS[name](seed, quick)
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    staged.system.run()
    profile.disable()
    outcome = staged.finish()
    if outcome.breaches:
        raise SystemExit(f"error: {name} broke its checks: {outcome.breaches}")
    folded = fold.fold(pstats.Stats(profile).stats)
    return (folded.calls, staged.system.engine.events_dispatched,
            outcome.offered)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size workload, as the benchmark's "
                             "self-test runs it")
    args = parser.parse_args(argv)

    calls, events, offered = measure(args.workload, args.seed, args.quick)
    print(f"{args.workload} seed {args.seed}"
          f"{' --quick' if args.quick else ''}: {offered} requests")
    print(f"{'layer':<18}{'calls a request':>16}")
    for layer in fold.LAYERS:
        if calls[layer]:
            print(f"{layer:<18}{calls[layer] / offered:>16.3f}")
    print(f"{'total':<18}{sum(calls.values()) / offered:>16.3f}")
    print(f"{'sim.events_per_req':<18}{events / offered:>16.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
