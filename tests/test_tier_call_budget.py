"""Each telemetry tier pays only for itself, gated as exact call counts.

One machine with tenant-tagged traffic — ``set_a()``, seed 5, a RocksDB
app with six threads, ``ROUND_ROBIN`` at ``SOCKET_SELECT``, 200 K rps of
``GET_ONLY`` for 20 ms, every request ``tenant="t"`` — run three ways
under ``cProfile``: spans only (1 in 16 sampled), accounting only, and
both.  Counted: Python calls per request into ``repro/obs/``, and into
each tier's own module.

A spans-only run makes no call into ``obs/accounting.py`` and an
accounting-only run none into ``obs/spans.py``: the probe tests which
tiers are live before it does a tier's work, so a request's flight record
is opened for the accountant only when there is one.  With both tiers
live a seam is still one frame (``Probe``'s method), so the two-tier run
costs about what the dearer tier costs alone.

Before the seams were one frame each, the same runs made 10.69 (spans),
12.13 (accounting) and 26.82 (both) calls per request into ``repro/obs/``:
the one-tier ceilings below sit at or under those numbers, and the
two-tier ceiling fails a probe that chains one frame per tier or opens a
request's record for a tier that is off.
"""

import cProfile
import pstats

import pytest

from repro import Hook, Machine, set_a
from repro.apps import RocksDbServer
from repro.policies import ROUND_ROBIN
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY

from test_dark_path_budget import calls_into

#: Calls per request into repro/obs/, per tier mix, today: the ten seams
#: this run calls, each one Probe frame, plus (spans) the sampled
#: sixteenth's tree helpers, 10.63, or (accounting) the record's open and
#: the odd blame split, 11.13, or both, 11.70.
OBS_CALLS_PER_REQ = {
    "spans": 10.69,
    "accounting": 11.2,
    "both": 11.8,
}
TELEMETRY = {
    "spans": {"spans": 16},
    "accounting": {"accounting": True},
    "both": {"spans": 16, "accounting": True},
}


def profile_tier_run(**telemetry):
    machine = Machine(set_a(), seed=5, **telemetry)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, num_threads=6)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    gen = OpenLoopGenerator(machine, 8080, 200_000, GET_ONLY,
                            duration_us=20_000, tenant="t")
    server.response_sink = gen.deliver_response
    gen.start()
    profile = cProfile.Profile()
    profile.enable()
    machine.run()
    profile.disable()
    requests = machine.nic.rx_packets
    assert requests > 3000 and gen.completed_in_window() == requests
    return pstats.Stats(profile).stats, requests, machine.obs


@pytest.mark.parametrize("tiers", sorted(TELEMETRY))
def test_each_tier_pays_only_for_itself(tiers):
    stats, requests, obs = profile_tier_run(**TELEMETRY[tiers])
    if obs.spans is not None:
        assert obs.spans.sampled > 200
    if obs.acct is not None:
        assert obs.acct.ledgers["t"].completed == requests
    # a request's flight record opens when a live tier needs it: on a
    # sampled request for the tracer, on every tagged one for the accountant
    opened = calls_into(stats, "/repro/obs/probe.py", "__init__")
    if tiers == "spans":
        assert calls_into(stats, "/repro/obs/accounting.py") == 0
        assert opened == obs.spans.sampled
    else:
        assert opened == requests
    if tiers == "accounting":
        assert calls_into(stats, "/repro/obs/spans.py") == 0
    per_request = calls_into(stats, "/repro/obs/") / requests
    assert per_request <= OBS_CALLS_PER_REQ[tiers], per_request
