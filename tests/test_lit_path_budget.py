"""The lit path's fixed costs gated as exact call counts: the twin of
``test_dark_path_budget.py`` for a run with every telemetry tier on.

The benchmark's own ``control_loop`` staging (``benchmarks/perf/
workloads.py``, imported the way ``tools/allocs.py`` imports it, not
copied) at tenth size — 18.5 ms, spans 1-in-16, accounting, time series,
SLOs and the signal bus, ``tenant="bench"`` — under ``cProfile``: how many
Python calls each request makes into the span and accounting tiers
(the probe that writes them, the tracer, the accountant and the blame
matrix), the SLO engine, the eBPF runtime and JIT, the hook site, the
metrics registry, the qdisc and the packet path, and into ``repro`` as a
whole, and how many ``<lambda>`` frames ``repro/machine.py`` contributes.
Counts, not seconds, so the gate is deterministic.

Before each seam was one ``Probe`` frame over both tiers, with the
request carrying its own flight record, the same run made 33.7 calls per
request into ``obs/probe.py`` + ``obs/spans.py`` + ``obs/accounting.py``
+ ``obs/interference.py`` and 102.4 into ``repro`` + JIT.  Before the
accountant's flight record, the inlined tree lookup, the attribute clock
and the lazy SLO-bin expiry it made 32.8 into the accountant and blame
matrix alone, 17.7 into ``obs/spans.py`` and 5.06 into ``obs/slo.py``,
and 23.7 ``lambda: self.engine.now`` frames.  A re-added helper hop (a
record lookup, a per-tier frame behind a seam, a ledger method called
from a seam) costs at least one call per request and a callable clock
one per stamp; either fails this on any machine.
"""

import cProfile
import os
import pstats
import sys

from test_dark_path_budget import calls_into

PERF = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "benchmarks", "perf")
if PERF not in sys.path:
    sys.path.insert(0, PERF)

import workloads   # noqa: E402  (benchmarks/perf/workloads.py)

# Per request, today (14.58): the twelve seams this run calls (nine
# packet seams, the qdisc pair among them, policy_exec and the two
# service seams), each one Probe frame whichever tiers are live; opening the
# request's flight record (Flight.__init__, the ledger lookup inline);
# for the 90% of requests that waited behind something, _charge_blame
# with BlameMatrix.charge written out; and for the 1 in 16 that is
# sampled, its tree's _begin / _open / _close / _finalize.  With a frame
# per live tier behind each seam (a chaining closure, then each tier's
# own method) and a dict lookup per tier for the request's state: 33.7.
TELEMETRY_CALLS_PER_REQ = 15
# Per request, today: the availability Slo.record and LatencySlo.observe,
# which books its event in its own frame (it was a second record: 3.08);
# the signal bus's burn-rate reads every 2 ms are the remainder.
SLO_CALLS_PER_REQ = 2.1
# Per request, today (5.15): the ADAPTIVE_SELECT decision and the
# SRPT_AUTO_THRESHOLD rank, each a LoadedProgram.run (its two counters
# bumped inline) and a JIT frame, plus the server's svc_time_map update.
# Map reads and packet loads are C calls inside the JIT frame.  With a
# bound lookup frame per read and Counter.inc per bump it was 13.1.
EBPF_CALLS_PER_REQ = 5.2
# Per layer, today.  core/hooks: decide and cost_us; the decision's
# counters, event and executor lookup are inline (it was 3).
# obs/registry.py: the qdisc's enqueues / dequeues Counter.inc and the
# map update's counter (3.2; the rank and map-latency series are
# sketches, whose Sketch.observe frames count under obs/sketch.py.  With
# them as registry histograms it was 5.2, and before that 13.2, with a
# Counter.inc per program run and decision and a Gauge.set per depth
# change).  qdisc/: offer, rank_of, OfferResult, the backend's push and
# pop, take, and the backend's length once per offer, take and socket
# enqueue (9.4; it was 14.4).  net/: Packet.__init__, Nic.receive,
# rss_queue, _irq_deliver, and data + _build on the first read, which
# packs both headers at once (6.0; it was 9.7 with a load frame per read).
LAYER_CALLS_PER_REQ = {
    "/repro/core/hooks": 2,
    "/repro/obs/registry.py": 5.3,
    "/repro/qdisc/": 9.4,
    "/repro/net/": 6.1,
}
# Every call into repro plus the JIT frames (83.25; it was 102.4 with a
# frame per tier behind each seam, and 138.9 before that).
ALL_CALLS_PER_REQ = 84

def profile_lit_run():
    staged = workloads.stage_control_loop(3, quick=True)
    profile = cProfile.Profile()
    profile.enable()
    staged.system.run()
    profile.disable()
    outcome = staged.finish()
    assert not outcome.breaches, outcome.breaches
    assert outcome.offered > 5000
    obs = staged.system.obs
    # every tier really was on
    assert obs.acct.ledgers["bench"].completed > 5000
    assert obs.spans.sampled > 300 and len(obs.recorder) > 0
    return pstats.Stats(profile).stats, outcome.offered


def test_lit_path_call_budget():
    stats, requests = profile_lit_run()

    telemetry = sum(calls_into(stats, f"/repro/obs/{module}.py")
                    for module in ("probe", "spans", "accounting",
                                   "interference")) / requests
    slo = calls_into(stats, "/repro/obs/slo.py") / requests
    assert telemetry <= TELEMETRY_CALLS_PER_REQ, telemetry
    assert slo <= SLO_CALLS_PER_REQ, slo
    ebpf = (calls_into(stats, "/repro/ebpf/")
            + calls_into(stats, "<jit:")) / requests
    assert ebpf <= EBPF_CALLS_PER_REQ, ebpf
    for path_part, ceiling in LAYER_CALLS_PER_REQ.items():
        per_request = calls_into(stats, path_part) / requests
        assert per_request <= ceiling, (path_part, per_request)
    every = (calls_into(stats, "/repro/") + calls_into(stats, "<jit:")) / requests
    assert every <= ALL_CALLS_PER_REQ, every

    # the clock is an attribute of the engine, never a call
    assert calls_into(stats, "/repro/machine.py", "<lambda>") == 0
    assert calls_into(stats, "/repro/cluster/fleet.py", "<lambda>") == 0
