"""One run of one workload in a fresh process; prints one JSON document.

``run.py`` starts this file once per round.  The process builds the
workload, freezes the heap (``gc.collect(); gc.freeze()``, GC left on),
times the run and nothing else, then reads the simulated outputs and the
public counters.

This machine's speed drifts by 10-40% over seconds to minutes (measured:
README.md, "Noise floor"), far more than any bound, so the untraced run
carries its own yardstick: the simulation advances in ``SLICES`` equal
steps of simulated time — ``run(until=...)``, bit-identical to one
``run()`` — with a burst of a fixed reference kernel between steps.  The
kernel's rate around a step, against ``REFERENCE_RATE``, is the machine's
speed *during that step*, and the step's seconds are scaled by it:
``reference_s`` is what the run would have taken on a machine that held
the reference speed throughout.

With ``--profile`` the run is one ``run()`` call under ``cProfile``
instead, and the table is folded into layers (``fold.py``).
"""

import time

START_S = time.perf_counter()  # process start, before the heavy imports

import argparse
import cProfile
import functools
import gc
import heapq
import json
import pstats
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

SLICES = 100
BURST = 2000
#: Kernel iterations per second on this box in a quiet stretch at the
#: commit that added the benchmark: the "reference machine".
REFERENCE_RATE = 850_000.0

#: Functions whose exact traced call count is a per-layer counter.
TRACED_CALLS = {
    "hook_decisions": ("core/hooks.py", "decide"),
    "program_runs": ("ebpf/program.py", "run"),
    "interpreted_runs": ("ebpf/vm.py", "execute"),
    "redeploys": ("core/syrupd.py", "redeploy"),
    "qdisc_deploys": ("core/syrupd.py", "deploy_qdisc"),
}


class ReferenceNode:
    __slots__ = ("time", "hops")

    def __init__(self, time, hops):
        self.time = time
        self.hops = hops

    def after(self, delay):
        self.hops += 1
        return self.time + delay


class ReferenceKernel:
    """A miniature event loop with the simulator's habits — a heap of
    ``(time, seq, object)`` tuples, slotted objects allocated and freed
    per event, method calls, a dict of live objects — so that whatever
    slows the simulator on this machine slows it alike.  It allocates as
    much as it frees, so it leaves the collector's counts alone.

    Every ``sim_us_per_wall_s`` of every later commit is relative to this
    code: it must never change.
    """

    HEAP = 1024
    TABLE = 4096

    def __init__(self):
        self.heap = [(float(i), i, ReferenceNode(float(i), 0))
                     for i in range(self.HEAP)]
        self.table = {i: ReferenceNode(0.0, 0) for i in range(self.TABLE)}
        self.seq = self.HEAP

    def burst(self):
        """BURST iterations; returns the seconds they took."""
        started = time.perf_counter()
        heap, table, seq = self.heap, self.table, self.seq
        push, pop = heapq.heappush, heapq.heappop
        mask = self.TABLE - 1
        for seq in range(seq + 1, seq + 1 + BURST):
            now, _, node = pop(heap)
            fresh = ReferenceNode(now, node.hops)
            push(heap, (fresh.after(1.5 + (seq & 1023)), seq, fresh))
            table[seq & mask] = node
            node.time = now * 0.5 + table[(seq * 7) & mask].time * 0.25
        self.seq = seq
        return time.perf_counter() - started


def sliced_run(staged, kernel):
    """Advance to the end in SLICES steps with a kernel burst around each.

    Returns ``(wall_s, reference_s)``: the seconds spent inside the
    simulator alone, and the same with every step scaled by the machine's
    speed at that moment — the rate of the bursts just before and after
    it against REFERENCE_RATE.  Only the first step goes through
    ``run()``: it arms what must be armed once.
    """
    clock = time.perf_counter
    engine = staged.system.engine
    step_us = staged.duration_us / SLICES
    wall_s = reference_s = 0.0
    before_s = kernel.burst()
    for number in range(1, SLICES + 2):
        started = clock()
        if number == 1:
            staged.system.run(until=step_us)
        elif number <= SLICES:
            engine.run(until=number * step_us)
        else:
            engine.run()        # drain
        step_s = clock() - started
        after_s = kernel.burst()
        speed = 2 * BURST / (before_s + after_s) / REFERENCE_RATE
        wall_s += step_s
        reference_s += step_s * speed
        before_s = after_s
    return wall_s, reference_s


class GcMeter:
    """Counts collections per generation and the seconds spent in them."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self.started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self.started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self.started
            self.collections[info["generation"]] += 1


def read_probes(probes):
    """Counter name -> value, or None (with a warning) when the public
    attribute behind it is gone; a missing counter never fails the run."""
    values = {}
    for name, probe in probes.items():
        try:
            values[name] = probe()
        except (AttributeError, KeyError, TypeError) as exc:
            print(f"warning: counter {name!r} is absent: {exc!r}",
                  file=sys.stderr)
            values[name] = None
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        sys.exit(f"error: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import fold
    import workloads

    stages = dict(
        workloads.WORKLOADS,
        control_loop_plain=functools.partial(
            workloads.stage_control_loop, extra_tiers=False),
    )
    staged = stages[args.workload](args.seed, args.quick)
    document = {"workload": args.workload, "seed": args.seed,
                "setup_s": time.perf_counter() - START_S}

    if args.profile:
        gc.collect()
        gc.freeze()
        profile = cProfile.Profile()
        started = time.perf_counter()
        profile.enable()
        staged.system.run()
        profile.disable()
        document["wall_s"] = time.perf_counter() - started
        stats = pstats.Stats(profile).stats
        document["trace"] = fold.fold(stats).as_dict()
        document["traced_calls"] = {
            name: fold.calls_to(stats, *target)
            for name, target in TRACED_CALLS.items()
        }
    else:
        kernel = ReferenceKernel()
        kernel.burst()              # warm
        gc.collect()
        gc.freeze()
        meter = GcMeter()
        gc.callbacks.append(meter)
        wall_s, reference_s = sliced_run(staged, kernel)
        gc.callbacks.remove(meter)
        document.update(wall_s=wall_s, reference_s=reference_s,
                        gc_collections=meter.collections, gc_s=meter.seconds)

    outcome = staged.finish()
    document.update(
        sim_us=staged.system.engine.now,
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        offered=outcome.offered,
        breaches=outcome.breaches,
        fingerprint=outcome.fingerprint,
        counters=read_probes(staged.probes),
    )
    print(json.dumps(document))


if __name__ == "__main__":
    main()
