"""The agent path's fixed costs gated as exact call counts: the third
sibling of ``test_dark_path_budget.py`` (bare packet path) and
``test_lit_path_budget.py`` (every telemetry tier on), for the userspace
scheduling loop.

The benchmark's own ``ghost_cross_layer`` staging (``benchmarks/perf/
workloads.py``, imported, not copied) at tenth size — Figure 8 "both":
SCAN Avoid in the kernel, ``GetPriorityPolicy`` in a ghOSt agent, 36
threads talking through ``type_map`` — under ``cProfile``: how many
Python calls each request makes into the ghOSt substrate, the thread
policy and the userspace Map wrapper.  Counts, not seconds, so the gate
is deterministic.

Before the in-place core views, the single-read policy and the inline Map
accounting the same run made 58.1 calls per request into ``repro/ghost/``,
17.7 into ``repro/policies/`` and 38.5 into ``core/maps.py`` (three frames
for each of 12.8 ops).  A re-added per-core property, a per-pass view
allocation, a helper hop around a Map op or a second type read per thread
each cost at least one call per pass, core or op, and fail this on any
machine.
"""

import cProfile
import pstats

import pytest

from test_dark_path_budget import calls_into
from test_lit_path_budget import workloads   # benchmarks/perf/workloads.py

# Per request there are 2.15 messages and as many agent passes.  Per
# message: GhostScheduler._notify and Message.__init__ (2).  Per pass:
# _drain, _decide, _snapshot, SchedStatus.__init__, idle_cores and
# _after_work (6).  That is 8 x 2.15 = 17.2; then 1.17 commits x
# (_commit_effect + GhostScheduler.commit) = 2.35, and one _run_end, 0.98
# wake and 0.98 _core_idle per request: 22.5 on 3.9-3.11, the same on 3.12.
GHOST_CALLS_PER_REQ = 24
# Per pass: GetPriorityPolicy.schedule (2.15 per request); the victims
# comprehension runs only on the 9% of passes that leave a GET unplaced
# (0.2 per request, no frame at all from 3.12 on): 2.35.
POLICY_CALLS_PER_REQ = 3
# One frame per userspace Map op and nothing else: the ceiling is the
# run's own op count (7.9 per request: 3.98 app updates of type_map /
# scan_map and 3.93 policy lookups) plus once-per-run slack.
MAPS_FRAMES_PER_OP = 1
ONE_OFF_SLACK = 0.1
# The engine is not this path's to touch: 11.57 events per request, each
# a post (plus Event.__init__ for the cancellable run events), 13.165
# calls today.  Both client wire legs were events of their own at 13.57
# events and 15.165 calls.
SIM_CALLS_PER_REQ = 13.3
EVENTS_PER_REQ = 11.6
# Every telemetry tier is off: the machine holds no probe and each seam
# call site tests it, so no request reaches repro/obs/ (the null
# recorder's one arm() per run is the slack).  Before, the wakes,
# placements and service starts and ends made 12.15 no-op seam calls per
# request here, ungated.
OBS_CALLS_PER_REQ = 0
# The parent commit's tenth-size seed-3 run, exactly: what the agent did
# is pinned, only what it costs the host may fall.
REQUESTS = 5024
MESSAGES_PROCESSED = 10814
COMMITS = 5902
FAILED_COMMITS = 0


def profile_agent_run():
    staged = workloads.stage_ghost_cross_layer(3, quick=True)
    profile = cProfile.Profile()
    profile.enable()
    staged.system.run()
    profile.disable()
    outcome = staged.finish()
    assert not outcome.breaches, outcome.breaches
    return pstats.Stats(profile).stats, staged, outcome.offered


def test_agent_path_call_budget():
    stats, staged, requests = profile_agent_run()
    machine = staged.system
    agent = machine.scheduler.agent

    # what the agent did is the parent's run, count for count
    assert requests == REQUESTS
    assert agent.messages_processed == MESSAGES_PROCESSED
    assert agent.commits == COMMITS
    assert agent.failed_commits == FAILED_COMMITS
    assert agent.policy_errors == 0
    events = machine.engine.events_dispatched / requests
    assert events == pytest.approx(EVENTS_PER_REQ, abs=0.1)

    ghost = calls_into(stats, "/repro/ghost/") / requests
    policies = calls_into(stats, "/repro/policies/") / requests
    maps = calls_into(stats, "/repro/core/maps.py") / requests
    sim = calls_into(stats, "/repro/sim/") / requests
    obs = calls_into(stats, "/repro/obs/") / requests
    ops = staged.probes["userspace_map_ops"]() / requests
    assert ghost <= GHOST_CALLS_PER_REQ, ghost
    assert policies <= POLICY_CALLS_PER_REQ, policies
    assert 0 < ops and maps <= MAPS_FRAMES_PER_OP * ops + ONE_OFF_SLACK, (
        maps, ops)
    assert sim <= SIM_CALLS_PER_REQ, sim
    assert obs <= OBS_CALLS_PER_REQ + ONE_OFF_SLACK, obs
