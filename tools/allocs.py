#!/usr/bin/env python
"""Memory per layer: ``tracemalloc`` over one benchmark workload.

The repository benchmark (``benchmarks/perf/run.py``) attributes host
*time* per layer and reports memory only as GC counts and peak RSS.  This
tool gives allocations a per-layer number: it stages one of the
benchmark's five workloads exactly as the benchmark does
(``benchmarks/perf/workloads.py``), traces the run with ``tracemalloc``,
and bills every traced block to a layer by the file that allocated it,
with the benchmark's own ``fold.LAYER_PREFIXES`` (imported, not copied).
A block allocated inside the standard library (``random``, ``heapq``,
``collections``) is billed to the nearest calling frame that has a layer,
as ``fold.py`` bills its time.

``tracemalloc`` sees blocks, not allocation events: a block freed before
the next snapshot is never counted.  So two numbers are reported per
layer; for a seed they repeat to within a block or two per snapshot (the
interpreter's free lists and hash randomisation move the odd block):

- **retained** — blocks (and bytes) allocated since ``run()`` began and
  still alive once the run has drained, per offered request: what each
  request leaves behind for good (latency samples, counters, recorder
  rows) plus what the run built once (the RSS memo).
- **in flight** — blocks (and bytes) alive while the load is on that the
  drained run no longer holds: per allocation site, the live count at a
  snapshot minus that site's retained count (never below zero), averaged
  over :data:`SNAPSHOTS` evenly spaced instants of simulated time and
  divided by the mean number of engine entries queued at those instants.
  A queued entry is what keeps a request's objects alive (its heap tuple,
  ``Event``, argument tuple, packet, request), so this is what one more
  outstanding event costs.

Out of the benchmark's contract: nothing here is compared by the driver.

Usage::

    python tools/allocs.py --workload rocksdb_steady --quick
    python tools/allocs.py --workload fleet_rack --quick --seed 4
"""

import argparse
import gc
import os
import sys
import tracemalloc

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(REPO_ROOT, "benchmarks", "perf"),
              os.path.join(REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import fold        # noqa: E402  (benchmarks/perf/fold.py)
import workloads   # noqa: E402  (benchmarks/perf/workloads.py)

#: Frames kept per block: enough to climb out of the standard library.
FRAMES = 6
#: In-flight snapshots, evenly spaced over the load.
SNAPSHOTS = 8
NO_LAYER = "(no layer)"


def layer_of(traceback):
    """The layer of the innermost frame that has one."""
    for frame in reversed(traceback):  # tracemalloc lists oldest first
        layer = fold.own_layer(frame.filename)
        if layer is not None:
            return layer
    return NO_LAYER


def sites(snapshot):
    """``traceback -> (blocks, bytes)`` over every traced block but ours."""
    snapshot = snapshot.filter_traces([
        tracemalloc.Filter(False, tracemalloc.__file__),
        tracemalloc.Filter(False, __file__),
    ])
    return {stat.traceback: (stat.count, stat.size)
            for stat in snapshot.statistics("traceback")}


def measure(name, seed, quick):
    """Run one workload under tracemalloc; returns ``(in_flight, queued,
    retained, offered)`` with both foldings as ``layer -> [blocks,
    bytes]`` (in flight: summed over the snapshots, like ``queued``)."""
    staged = workloads.WORKLOADS[name](seed, quick)
    engine = staged.system.engine
    step_us = staged.duration_us / (SNAPSHOTS + 1)
    gc.collect()
    tracemalloc.start(FRAMES)
    try:
        live, queued = [], 0
        # Only the first step goes through run(): it arms what must be
        # armed once (the benchmark's child.py slices the same way).
        staged.system.run(until=step_us)
        for number in range(1, SNAPSHOTS + 1):
            if number > 1:
                engine.run(until=number * step_us)
            queued += engine.queued()
            live.append(sites(tracemalloc.take_snapshot()))
        engine.run()  # drain
        gc.collect()
        kept = sites(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    outcome = staged.finish()
    if outcome.breaches:
        raise SystemExit(f"error: {name} broke its checks: {outcome.breaches}")

    in_flight, retained = {}, {}
    for traceback, (blocks, size) in kept.items():
        row = retained.setdefault(layer_of(traceback), [0, 0])
        row[0] += blocks
        row[1] += size
    for snapshot in live:
        for traceback, (blocks, size) in snapshot.items():
            kept_blocks, kept_size = kept.get(traceback, (0, 0))
            row = in_flight.setdefault(layer_of(traceback), [0, 0])
            row[0] += max(0, blocks - kept_blocks)
            row[1] += max(0, size - kept_size)
    return in_flight, queued, retained, outcome.offered


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size workload, as the benchmark's "
                             "self-test runs it")
    args = parser.parse_args(argv)

    in_flight, queued, retained, offered = measure(
        args.workload, args.seed, args.quick)
    print(f"{args.workload} seed {args.seed}"
          f"{' --quick' if args.quick else ''}: {offered} requests, "
          f"{queued / SNAPSHOTS:.1f} engine entries queued on average "
          f"over {SNAPSHOTS} snapshots")
    queued = max(queued, 1)
    print(f"{'layer':<18}{'in flight, per queued entry':>30}"
          f"{'retained, per request':>30}")
    print(f"{'':<18}{'blocks':>15}{'bytes':>15}{'blocks':>15}{'bytes':>15}")
    totals = [0.0] * 4
    for layer in fold.LAYERS + (NO_LAYER,):
        live = in_flight.get(layer, (0, 0))
        kept = retained.get(layer, (0, 0))
        if not any(live) and not any(kept):
            continue
        row = [live[0] / queued, live[1] / queued,
               kept[0] / offered, kept[1] / offered]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{layer:<18}" + "".join(f"{value:>15.3f}" for value in row))
    print(f"{'total':<18}" + "".join(f"{value:>15.3f}" for value in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
