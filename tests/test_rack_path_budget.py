"""The rack path's fixed costs gated as exact call counts: the fifth
sibling of ``test_dark_path_budget.py`` (bare packet path),
``test_lit_path_budget.py`` (every telemetry tier on), the deploy budget
in the former and ``test_agent_path_budget.py`` (userspace scheduling),
for the aggregate tier.

The benchmark's own ``fleet_rack`` staging (``benchmarks/perf/
workloads.py``, imported, not copied) at tenth size — 100 aggregate
machines behind a ToR running the verified ``program_p2c``, a machine
kill at 40% and its restore at 75%, diurnal load — under ``cProfile``:
how many Python calls each request makes into ``repro/cluster/``, the
instrumentation seam, the metrics registry and the eBPF runtime.  Counts,
not seconds, so the gate is deterministic.

Before the single rule lookup, the request-as-facade, the bound series and
the bulk replica write the same run made 23.6 calls per request into
``repro/cluster/`` (three port-rule lookups, ``_schedule_next`` +
``rate_per_us``, ``_dispatch_next`` + ``send_response``, and 100 x
(``load`` -> ``queue_depth``) every 50 us), 4.0 into ``obs/registry.py``
(two ``counter()`` resolutions by name), 10.1 into ``repro/ebpf/`` (100
``ArrayMap.update`` per sync tick) and one ``PacketView.__init__``.
Before one span seam per fleet event, a dark rack also made 9.17 calls
per request into ``obs/probe.py``'s no-op and 2.0 ``NullMetric.inc``;
before a dark fleet held no probe, still 4.17 no-op seam calls.  A
re-added rule lookup, helper hop, per-request series resolution, second
request object, per-machine method call in the sync tick, unguarded seam
call or call on a disabled counter costs at least 0.17 calls per request
and fails this on any machine.
"""

import cProfile
import pstats

from test_dark_path_budget import calls_into
from test_lit_path_budget import workloads   # benchmarks/perf/workloads.py

# Per request, today, one frame each: FleetGenerator._arrive,
# FleetRequest.__init__, Fleet.admit, Fleet._steer (which schedules the
# service and defers its completion itself on a dark FIFO fleet) and
# SwitchProgramSteering.pick (which hands the request itself to the
# program): 5.  The completion is no frame: ``Fleet._retire`` books the
# due ones in a loop, in its own frame (FleetMachine._complete_service
# was a sixth, FleetMachine.receive and _begin_service a seventh and
# eighth, Fleet._complete a ninth).  The sync bus ticks 0.022 times per
# request and costs nine frames a tick whatever the rack size (publish,
# _work_pending and _snapshot_load with a ``_retire`` each, _apply, the
# apply lambda, apply_load and its comprehension): 0.2.  The kill's
# re-steers, the 12 requests steered at the corpse (which land by
# ``_land`` -> ``receive``), the 28 sweeps and the flow-hash fallback
# are the last 0.02: 5.22, so one re-added hop per request (6.22) fails.
CLUSTER_CALLS_PER_REQ = 6
# A dark fleet holds no probe (``fleet.probe is None``) and every seam
# call site tests it, so nothing reaches obs/probe.py.  It was one no-op
# call per fleet event, 4.17 per request; one unguarded seam on any path
# fails.
PROBE_CALLS_PER_REQ = 0
# The two per-request series are None on the null registry, so a dark
# rack calls nothing per request: their two first-use resolutions, and
# the 15 re-steers and two fault injections resolving and bumping theirs,
# are 36 calls a run.
REGISTRY_CALLS_PER_REQ = 0.01
# Per steer: LoadedProgram.run and the JIT's <jit: _policy frame (2).
# The JIT binds map lookups and mod_u64 inline, so they make no frame;
# 32 runs take the interpreter instead (execute, two map_lookup ->
# ArrayMap.lookup), and each sync tick's replica write is ArrayMap.assign
# + its comprehension: 25,652 + 24,348 calls over 24,365 requests, 2.05.
EBPF_CALLS_PER_REQ = 2.1
# The engine's calls: per request one post (the arrival), plus the sync
# bus's 0.022 x (PeriodicTimer._tick + schedule + Event.__init__ + post)
# — 24,917 post + 4 x 540 + arm + run — and the 29 sweep posts (``at``
# + Event.__init__; one re-posts at the kill) and the kill's ``cancel``
# of the sweep, exactly.  The service
# completion is no event (50,909 calls while ``_steer`` posted it), nor
# is the arrival at the machine (75,275 calls while it was a post) or
# the response (124,011 calls while it was a post and the service a
# cancellable schedule + Event.__init__).  The fault plan's two post_at
# and the generator's first post happen at staging (Fleet() and
# drive()), outside the profiled run().
SIM_CALLS = 26_598
# The tenth-size seed-3 run, exactly: what the rack did is pinned, only
# what it costs the host may fall.  Events are the 24,365 arrivals, 540
# ticks and 540 applies, the 12 forwards at the killed machine before
# detection (which still land by event), the kill, its detection and the
# restore, and 28 sweeps: 1.046 a request.  They were 49,828 while each
# completion was an event (the three the kill left stale included),
# 74,196 while each machine arrival was one too.
EVENTS = 25_488
OFFERED = 24_365
COMPLETED = 24_365
RESTEERS = 15
MAX_SERVED = 270


def profile_rack_run():
    staged = workloads.stage_fleet_rack(3, quick=True)
    profile = cProfile.Profile()
    profile.enable()
    staged.system.run()
    profile.disable()
    outcome = staged.finish()
    assert not outcome.breaches, outcome.breaches
    return pstats.Stats(profile).stats, staged.system, outcome.offered


def test_rack_path_call_budget():
    stats, fleet, requests = profile_rack_run()

    # what the rack did is the parent's run, count for count
    assert requests == OFFERED
    assert fleet.completed == COMPLETED and fleet.dropped == 0
    assert fleet.switch.resteers == RESTEERS
    assert max(m.served for m in fleet.machines) == MAX_SERVED
    assert fleet.engine.events_dispatched == EVENTS
    assert calls_into(stats, "/repro/sim/") == SIM_CALLS

    cluster = calls_into(stats, "/repro/cluster/") / requests
    probe = calls_into(stats, "/repro/obs/probe.py") / requests
    registry = calls_into(stats, "/repro/obs/registry.py") / requests
    ebpf = (calls_into(stats, "/repro/ebpf/")
            + calls_into(stats, "<jit:")) / requests
    assert cluster <= CLUSTER_CALLS_PER_REQ, cluster
    assert probe <= PROBE_CALLS_PER_REQ, probe
    assert registry <= REGISTRY_CALLS_PER_REQ, registry
    assert ebpf <= EBPF_CALLS_PER_REQ, ebpf
    # the request is the packet facade: no PacketView.__init__ for a second
    # object per request, and program_p2c never reads a byte
    assert calls_into(stats, "/repro/net/") == 0
    assert calls_into(stats, "/repro/workload/") == requests   # mix.sample
