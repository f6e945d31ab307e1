"""Fixed costs gated as exact counts: the bare packet path, the deploy
path's builds per distinct text and control-plane frames per step, and
the bytecodes of one interpreted run.

A 20 ms SCAN Avoid run with every telemetry tier off, under ``cProfile``:
how many Python calls each request makes into each layer of the host
packet path — engine, packet/NIC, generator, server, kernel, hook site,
eBPF runtime and JIT — and into ``random.py``, ``machine.py`` and
``config.py``, plus how many ``struct.pack`` calls the whole run makes.
Counts, not seconds, so the gate is deterministic: a re-added
``@property`` on the packet, a wrapper hop in the engine, a helper frame
around a map read, a ``random`` library draw or an eager serialisation
each add at least one call per request and fail it on any machine.
"""

import cProfile
import gc
import pstats
import random
import sys

import pytest

from repro import Hook
from repro.ebpf.program import LoadedProgram, image_of, text_image
from repro.experiments.runner import RocksDbTestbed
from repro.net.packet import FiveTuple, Packet, build_payload
from repro.net.rss import rss_hash
from repro.policies.builtin import HASH_BY_FLOW, ROUND_ROBIN, SCAN_AVOID
from repro.qdisc.policies import SRPT_BY_SIZE
from repro.workload.mixes import GET_SCAN_995_005

DURATION_US = 20_000.0

#: Calls per request into each layer of the host packet path, today.
#: Fractions are exact for this seed: a thread pulls 1.61 times per
#: request (the last pull finds its socket empty) and SCAN Avoid probes
#: 1.12 slots per decision.
PATH_CALLS_PER_REQ = {
    # three posted events (the send at its NIC arrival, IRQ delivery,
    # softirq service) plus the thread's cancellable run event, which is
    # Engine.schedule + Event.__init__; neither client wire leg is an
    # event of its own (the receipt is booked at delivery)
    "/repro/sim/": 5,
    # Packet.__init__, Nic.receive, rss_queue (its rss_hash is a memo
    # hit, served without a Python frame) and Nic._irq_deliver
    "/repro/net/": 4,
    # _send (the send, every draw, the next send and the NIC hand-off
    # inline), RequestMix.sample, Request.__init__ and deliver_response
    # (which books the receipt itself)
    "/repro/workload/": 4,
    # on_enqueue (a partial, no closure), request_cost, on_request_start,
    # on_request_complete (which sends the response, and which the work
    # source's complete is a partial of), KVStore.get and
    # SocketWorkSource.pull
    "/repro/apps/": 6.62,
    # netstack deliver_from_nic / _protocol_done, the socket's enqueue /
    # pop, SocketTable.group, the softirq FifoServer and the scheduler;
    # no FifoServer.__len__, which only the (dark) softirq seam read
    "/repro/kernel/": 14.82,
    # decide and cost_us: the program is the attachment's, and the
    # decision's event and executor lookup are inline
    "/repro/core/hooks": 2,
    # LoadedProgram.run; a map read is the slots dict's get inside the
    # JIT frame; the remainder is the 32 interpreted profile runs
    "/repro/ebpf/": 1.07,
    # the JIT'd policy itself
    "<jit:": 1,
    # a dark machine holds no probe, so no seam is called; a dark
    # attachment holds no counters, so nothing reaches obs/registry.py
    "/repro/obs/": 0,
    # the generator's sent, the server's completed and the latency
    # record, which is the generator's one completion booking; nothing
    # books the start of service
    "/repro/stats/": 3,
    # no Machine.now property and no CostModel.cycles_to_us
    "/repro/machine.py": 0,
    "/repro/config.py": 0,
    # the generator's draws are random's expressions, inline
    "/random.py": 0,
}
# Once-per-run calls (Engine.run, RSS memo misses, the null recorder's arm)
# spread over the requests.
ONE_OFF_SLACK = 0.1
#: Engine events a request: the four above.  The receipts due past the
#: send window stay events, and so does the send chain's last, empty one:
#: the slack.  Both client legs were events of their own at 6.0.
EVENTS_PER_REQ = 4.0


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
    events = testbed.machine.engine.events_dispatched
    return pstats.Stats(profile).stats, requests, len(gen.flows), events


def calls_into(stats, path_part, function=None):
    return sum(
        calls for (filename, _line, name), (_cc, calls, *_rest)
        in stats.items()
        if path_part in filename.replace("\\", "/")
        and function in (None, name)
    )


def test_dark_path_call_budget():
    stats, requests, flow_pool, events = profile_dark_run()

    for path_part, ceiling in PATH_CALLS_PER_REQ.items():
        per_request = calls_into(stats, path_part) / requests
        assert per_request <= ceiling + ONE_OFF_SLACK, (path_part, per_request)
    assert (EVENTS_PER_REQ <= events / requests
            <= EVENTS_PER_REQ + ONE_OFF_SLACK), events / requests

    # SCAN Avoid never reads packet bytes, so nothing is serialised: the
    # only packs are RSS memo misses, one per flow of the client pool.
    packs = sum(
        calls for (_file, _line, name), (_cc, calls, *_rest) in stats.items()
        if "'pack' of '_struct.Struct'" in name
    )
    assert packs <= flow_pool, packs


def test_dark_deploy_churn_calls_nothing_in_obs():
    """The benchmark's own tenth-size ``deploy_churn`` (a redeploy every
    250 us, a qdisc on or off every fourth) on a dark machine: no call
    into ``repro/obs/`` per request or per deploy.  While the tiers had
    null twins, the deploys' registry and event calls made 0.33."""
    from test_lit_path_budget import workloads  # benchmarks/perf/workloads.py

    staged = workloads.stage_deploy_churn(3, quick=True)
    profile = cProfile.Profile()
    profile.enable()
    staged.system.run()
    profile.disable()
    assert staged.finish().breaches == []
    assert calls_into(pstats.Stats(profile).stats, "/repro/obs/") == 0


# ----------------------------------------------------------------------
# The deploy path: compile → verify → IR compile + JIT, once per text
# ----------------------------------------------------------------------
CHURN_CONSTANTS = {"NUM_THREADS": 6, "NUM_EXECUTORS": 6}
CHURN_ROTATION = (ROUND_ROBIN, HASH_BY_FLOW, SCAN_AVOID)
#: Distinct (entry point, text, constants) keys below: the rotation's three
#: policy texts (the initial deploy is one of them) plus one rank text.
CHURN_KEYS = 4

#: Calls per step into each control-plane file on a dark machine with the
#: image memo warm: syrupd, health, registry, events.  A redeploy is
#: redeploy, the active-deployment lookup, _load, _swap and _transition.
#: A qdisc deploy + undeploy is deploy_qdisc, the port check, the queue
#: resolution, _load, _register, DeployedPolicy, undeploy and its
#: comprehension, two transitions; a health record (track + __init__).
#: A dark machine holds no registry and no event trace, so none of them
#: calls either.  Before each step had one body these were (7, 0, 2, 1)
#: and (23, 2, 4, 2); before a tier that is off was None, (5, 0, 3, 1)
#: and (10, 2, 6, 2), the null twins' calls.  A helper chain that grows,
#: or a call into a tier that is off, fails this exactly.
CONTROL_PLANE_FILES = ("/core/syrupd.py", "/core/health.py",
                       "/obs/registry.py", "/obs/events.py")
CONTROL_PLANE_CALLS = {"redeploy": (5, 0, 0, 0),
                       "qdisc_pair": (10, 2, 0, 0)}


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

    def redeploy(swap):
        app.redeploy_policy(CHURN_ROTATION[swap % 3], Hook.SOCKET_SELECT,
                            constants=CHURN_CONSTANTS)

    def qdisc_pair(_):
        app.deploy_qdisc(SRPT_BY_SIZE, "socket")
        app.undeploy_qdisc("socket")

    for swap in range(swaps):
        redeploy(swap)
    for i in range(4):
        qdisc_pair(i)
    profile.disable()
    stats = pstats.Stats(profile).stats

    # 1 + swaps + 4 loads; a build per load would be 35 (65) of each
    assert calls_into(stats, "/ebpf/program.py", "image_of") == 1 + swaps + 4
    # _compile is the one body behind compile_policy and compile_rank
    for path_part, function in (("/ebpf/compiler.py", "_compile"),
                                ("/ebpf/verifier.py", "verify"),
                                ("/ebpf/vm.py", "compile_ir"),
                                ("/ebpf/vm.py", "jit_compile")):
        assert calls_into(stats, path_part, function) == CHURN_KEYS, function

    # The image memo is warm now: what each step costs is the control
    # plane's own frames.
    for step, ceilings in ((redeploy, CONTROL_PLANE_CALLS["redeploy"]),
                           (qdisc_pair, CONTROL_PLANE_CALLS["qdisc_pair"])):
        profile = cProfile.Profile()
        profile.enable()
        for i in range(swaps):
            step(i)
        profile.disable()
        stats = pstats.Stats(profile).stats
        for path_part, ceiling in zip(CONTROL_PLANE_FILES, ceilings):
            per_step = calls_into(stats, path_part) / swaps
            assert per_step <= ceiling, (step.__name__, path_part, per_step)


# ----------------------------------------------------------------------
# One interpreted run, in CPython bytecodes
# ----------------------------------------------------------------------
# Ceilings are a quarter of what the per-instruction dispatch loop
# executed here (SCAN Avoid 1,675, round robin 675 on CPython 3.11); the
# compiled IR runs 209 and 91, so 3.9-3.12 opcode differences stay well
# inside.
BYTECODE_CEILINGS = {"SCAN_AVOID": (SCAN_AVOID, 417),
                     "ROUND_ROBIN": (ROUND_ROBIN, 167)}


def bytecodes_of(call):
    """Opcodes executed by ``call()`` in every Python frame it enters."""
    count = 0

    def per_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return per_opcode

    def per_frame(frame, event, arg):
        frame.f_trace_opcodes = True
        return per_opcode

    # A collection inside call() would run finalizers of unrelated
    # garbage (suspended generators' cleanup) and count their opcodes.
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(per_frame)
    try:
        call()
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
    return count


@pytest.mark.parametrize("policy", sorted(BYTECODE_CEILINGS))
def test_interpreted_run_bytecode_budget(policy):
    text, ceiling = BYTECODE_CEILINGS[policy]
    loaded = LoadedProgram(image_of(text, constants={"NUM_THREADS": 6}),
                           rng=random.Random(1))
    packet = Packet(FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 17),
                    build_payload(1))
    loaded.run_interp(packet)  # warm: first-call effects stay out
    counts = {bytecodes_of(lambda: loaded.run_interp(packet))
              for _ in range(3)}
    # SCAN Avoid's empty scan_map ends the probe loop on the first draw,
    # so every run takes the same path and counts the same.
    assert len(counts) == 1, counts
    assert counts.pop() <= ceiling
