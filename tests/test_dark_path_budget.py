"""Fixed costs gated as exact call counts: the bare packet path, and the
deploy path's builds per distinct text.

A 20 ms SCAN Avoid run with every telemetry tier off, under ``cProfile``:
how many Python calls each request makes into the engine and the packet/NIC
layer, and how many ``struct.pack`` calls the whole run makes.  Counts, not
seconds, so the gate is deterministic: a re-added ``@property`` on the
packet, a wrapper hop in the engine or an eager serialisation each add at
least one call per request and fail it on any machine.
"""

import cProfile
import pstats

import pytest

from repro import Hook
from repro.ebpf.program import text_image
from repro.experiments.runner import RocksDbTestbed
from repro.net.rss import rss_hash
from repro.policies.builtin import HASH_BY_FLOW, ROUND_ROBIN, SCAN_AVOID
from repro.qdisc.policies import SRPT_BY_SIZE
from repro.workload.mixes import GET_SCAN_995_005

DURATION_US = 20_000.0

# Per request, today: five posted events (arrival, wire hop, IRQ delivery,
# softirq service, response wire) plus the thread's cancellable run event,
# which is Engine.schedule + Event.__init__.
SIM_CALLS_PER_REQ = 7
# Per request, today: Packet.__init__, Nic.receive, rss_queue (its rss_hash
# is a memo hit, served without a Python frame) and Nic._irq_deliver.
NET_CALLS_PER_REQ = 4
# Once-per-run calls (Engine.run, RSS memo misses) spread over the requests.
ONE_OFF_SLACK = 0.1


def profile_dark_run():
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
        mark_scans=True, num_threads=6, seed=3,
    )
    gen = testbed.drive(150_000, GET_SCAN_995_005, DURATION_US, 0.0).start()
    rss_hash.cache_clear()  # other tests may have warmed or filled the memo
    profile = cProfile.Profile()
    profile.enable()
    testbed.machine.run()
    profile.disable()
    requests = testbed.machine.nic.rx_packets
    assert requests > 2000 and gen.completed_in_window() == requests
    return pstats.Stats(profile).stats, requests, len(gen.flows)


def calls_into(stats, path_part, function=None):
    return sum(
        calls for (filename, _line, name), (_cc, calls, *_rest)
        in stats.items()
        if path_part in filename.replace("\\", "/")
        and function in (None, name)
    )


def test_dark_path_call_budget():
    stats, requests, flow_pool = profile_dark_run()

    sim = calls_into(stats, "/repro/sim/") / requests
    net = calls_into(stats, "/repro/net/") / requests
    assert sim <= SIM_CALLS_PER_REQ + ONE_OFF_SLACK, sim
    assert net <= NET_CALLS_PER_REQ + ONE_OFF_SLACK, net

    # SCAN Avoid never reads packet bytes, so nothing is serialised: the
    # only packs are RSS memo misses, one per flow of the client pool.
    packs = sum(
        calls for (_file, _line, name), (_cc, calls, *_rest) in stats.items()
        if "'pack' of '_struct.Struct'" in name
    )
    assert packs <= flow_pool, packs


# ----------------------------------------------------------------------
# The deploy path: compile → verify → JIT runs once per distinct text
# ----------------------------------------------------------------------
CHURN_CONSTANTS = {"NUM_THREADS": 6, "NUM_EXECUTORS": 6}
CHURN_ROTATION = (ROUND_ROBIN, HASH_BY_FLOW, SCAN_AVOID)
#: Distinct (entry point, text, constants) keys below: the rotation's three
#: policy texts (the initial deploy is one of them) plus one rank text.
CHURN_KEYS = 4


@pytest.mark.parametrize("swaps", [30, 60])
def test_deploy_path_builds_each_distinct_text_once(swaps):
    text_image.cache_clear()  # other tests may have loaded these texts
    profile = cProfile.Profile()
    profile.enable()
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, CHURN_CONSTANTS),
        mark_scans=True, mark_sizes=True, num_threads=6, seed=3,
    )
    app = testbed.app
    for swap in range(swaps):
        app.redeploy_policy(CHURN_ROTATION[swap % 3], Hook.SOCKET_SELECT,
                            constants=CHURN_CONSTANTS)
    for _ in range(4):
        app.deploy_qdisc(SRPT_BY_SIZE, "socket")
        app.undeploy_qdisc("socket")
    profile.disable()
    stats = pstats.Stats(profile).stats

    # 1 + swaps + 4 loads; a build per load would be 35 (65) of each
    assert calls_into(stats, "/ebpf/program.py", "image_of") == 1 + swaps + 4
    for path_part, function in (("/ebpf/compiler.py", "compile_policy"),
                                ("/ebpf/verifier.py", "verify"),
                                ("/ebpf/jit.py", "jit_compile")):
        assert calls_into(stats, path_part, function) == CHURN_KEYS, function
