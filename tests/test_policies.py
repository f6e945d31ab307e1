"""Unit tests for the policy library (network sources + thread policies)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import DROP, PASS
from repro.ebpf.compiler import compile_policy
from repro.ebpf.program import load_program
from repro.ghost.agent import CoreView, SchedStatus
from repro.kernel.threads import KThread
from repro.net.packet import FiveTuple, Packet, build_payload
from repro.policies.builtin import (
    HASH_BY_FLOW,
    MICA_HASH,
    ROUND_ROBIN,
    SCAN_AVOID,
    SITA,
    TOKEN_BASED,
)
from repro.policies.thread_policies import FifoThreadPolicy, GetPriorityPolicy
from repro.workload.requests import GET, SCAN

FLOW = FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 17)


def pkt(rtype=GET, user=0, key_hash=0):
    return Packet(FLOW, build_payload(rtype, user, key_hash))


def load(source, **constants):
    return load_program(compile_policy(source, constants=constants))


# ----------------------------------------------------------------------
# Network policies
# ----------------------------------------------------------------------
def test_hash_by_flow_stable_and_in_range():
    loaded = load(HASH_BY_FLOW, NUM_EXECUTORS=6)
    values = {loaded.run(pkt()) for _ in range(10)}
    assert len(values) == 1
    assert 0 <= values.pop() < 6


def test_round_robin_covers_all_executors():
    loaded = load(ROUND_ROBIN, NUM_THREADS=5)
    seen = [loaded.run(pkt()) for _ in range(10)]
    assert sorted(set(seen)) == [0, 1, 2, 3, 4]


def test_scan_avoid_prefers_unmarked_sockets():
    loaded = load(SCAN_AVOID, NUM_THREADS=4)
    scan_map = loaded.map_by_name("scan_map")
    # mark all but socket 2 as serving SCANs
    for i in (0, 1, 3):
        scan_map.update(i, 1)
    scan_map.update(2, 0)
    picks = [loaded.run(pkt()) for _ in range(400)]
    # bounded random probing (paper Fig. 5c): strongly prefers the free
    # socket but may give up after NUM_THREADS probes ((3/4)^4 ~ 32%)
    frac_free = picks.count(2) / len(picks)
    assert frac_free > 0.55
    assert max(picks.count(i) for i in (0, 1, 3)) < picks.count(2)


def test_scan_avoid_gives_up_after_bounded_probes():
    loaded = load(SCAN_AVOID, NUM_THREADS=4)
    scan_map = loaded.map_by_name("scan_map")
    for i in range(4):
        scan_map.update(i, 1)  # everyone busy
    value = loaded.run(pkt())
    assert 0 <= value < 4  # still returns SOME socket, never hangs


def test_sita_split():
    loaded = load(SITA, NUM_THREADS=6, SCAN_TYPE=SCAN)
    assert loaded.run(pkt(rtype=SCAN)) == 0
    gets = {loaded.run(pkt(rtype=GET)) for _ in range(32)}
    assert gets == {1, 2, 3, 4, 5}


def test_sita_short_packet_passes():
    loaded = load(SITA, NUM_THREADS=6, SCAN_TYPE=SCAN)
    short = Packet(FLOW, b"1234")
    assert loaded.run(short) == PASS


def test_token_policy_per_user_buckets():
    loaded = load(TOKEN_BASED, NUM_THREADS=6)
    tokens = loaded.map_by_name("token_map")
    tokens.update(1, 1)
    tokens.update(2, 0)
    assert loaded.run(pkt(user=1)) != DROP
    assert loaded.run(pkt(user=1)) == DROP   # bucket drained
    assert loaded.run(pkt(user=2)) == DROP   # always empty
    tokens.update(2, 3)
    assert loaded.run(pkt(user=2)) != DROP


def test_mica_hash_is_home_steering():
    loaded = load(MICA_HASH, NUM_EXECUTORS=8)
    for key_hash in (0, 7, 8, 123456789):
        assert loaded.run(pkt(key_hash=key_hash)) == key_hash % 8


# ----------------------------------------------------------------------
# Thread policies
# ----------------------------------------------------------------------
class FakeMap:
    def __init__(self, values):
        self.values = values

    def lookup(self, key):
        return self.values.get(key)


def make_status(runnable, core_threads, pending=()):
    cores = [
        CoreView(i, t, i in pending) for i, t in enumerate(core_threads)
    ]
    return SchedStatus(0.0, runnable, cores)


def thread(tid):
    return KThread(tid=tid, app="a")


def test_fifo_policy_matches_idle_cores():
    t1, t2, t3 = thread(1), thread(2), thread(3)
    status = make_status([t1, t2, t3], [None, None])
    placements = FifoThreadPolicy().schedule(status)
    assert placements == [(t1, 0), (t2, 1)]


def test_fifo_policy_no_idle_cores():
    t1 = thread(1)
    status = make_status([t1], [thread(9)])
    assert FifoThreadPolicy().schedule(status) == []


def test_get_priority_places_gets_first():
    tg, ts = thread(1), thread(2)
    type_map = FakeMap({1: GET, 2: SCAN})
    status = make_status([ts, tg], [None])
    placements = GetPriorityPolicy(type_map).schedule(status)
    assert placements == [(tg, 0)]


def test_get_priority_preempts_scan_cores():
    tg = thread(1)
    scan_runner = thread(5)
    type_map = FakeMap({1: GET, 5: SCAN})
    status = make_status([tg], [scan_runner])
    placements = GetPriorityPolicy(type_map).schedule(status)
    assert placements == [(tg, 0)]


def test_get_priority_never_preempts_get_cores():
    tg = thread(1)
    get_runner = thread(5)
    type_map = FakeMap({1: GET, 5: GET})
    status = make_status([tg], [get_runner])
    assert GetPriorityPolicy(type_map).schedule(status) == []


def test_get_priority_skips_pending_cores():
    tg = thread(1)
    scan_runner = thread(5)
    type_map = FakeMap({1: GET, 5: SCAN})
    status = make_status([tg], [scan_runner], pending={0})
    assert GetPriorityPolicy(type_map).schedule(status) == []


def test_get_priority_scan_threads_take_idle_cores():
    ts = thread(2)
    type_map = FakeMap({2: SCAN})
    status = make_status([ts], [None])
    assert GetPriorityPolicy(type_map).schedule(status) == [(ts, 0)]


class CountingMap(FakeMap):
    lookups = 0

    def lookup(self, key):
        self.lookups += 1
        return self.values.get(key)


def reference_get_priority(type_map, status):
    """``GetPriorityPolicy.schedule`` as it stood before the single-read
    rewrite, verbatim: the oracle the new body must agree with."""
    def _rtype(thread):
        value = type_map.lookup(thread.tid)
        return 0 if value is None else value

    gets = [t for t in status.runnable if _rtype(t) == GET]
    others = [t for t in status.runnable if _rtype(t) != GET]
    placements = []
    idle = status.idle_cores()
    # 1) idle cores: GETs first, then the rest.
    queue = gets + others
    for core in idle:
        if not queue:
            break
        placements.append((queue.pop(0), core.cid))
    # 2) remaining GETs may preempt cores running SCAN threads.
    gets_left = [t for t in queue if _rtype(t) == GET]
    if gets_left:
        victims = [
            core
            for core in status.cores
            if core.thread is not None
            and not core.pending
            and _rtype(core.thread) == SCAN
        ]
        for thread, core in zip(gets_left, victims):
            placements.append((thread, core.cid))
    return placements


RTYPES = st.sampled_from([None, 0, GET, SCAN])   # None: no type_map entry
CORE_STATES = st.sampled_from(
    ["idle", "pending", "pending_busy", "busy_get", "busy_scan",
     "busy_untyped"])


@settings(max_examples=300, deadline=None)
@given(runnable_types=st.lists(RTYPES, max_size=36),
       core_states=st.lists(CORE_STATES, min_size=1, max_size=6))
def test_get_priority_matches_the_three_pass_reference(runnable_types,
                                                       core_states):
    values = {}
    runnable = []
    for tid, rtype in enumerate(runnable_types):
        runnable.append(thread(tid))
        if rtype is not None:
            values[tid] = rtype
    core_threads, pending = [], set()
    for index, state in enumerate(core_states):
        runner = None
        if state not in ("idle", "pending"):
            runner = thread(100 + index)
            rtype = {"busy_get": GET, "busy_scan": SCAN}.get(state)
            if rtype is not None:
                values[runner.tid] = rtype
        if state.startswith("pending"):
            pending.add(index)
        core_threads.append(runner)

    expected = reference_get_priority(
        FakeMap(values), make_status(list(runnable), core_threads, pending))
    type_map = CountingMap(values)
    status = make_status(list(runnable), core_threads, pending)
    assert GetPriorityPolicy(type_map).schedule(status) == expected
    assert status.runnable == runnable      # the policy consumed no input

    gets = sum(1 for rtype in runnable_types if rtype == GET)
    idle = sum(1 for state in core_states if state == "idle")
    victims_read = sum(1 for state in core_states if state.startswith("busy"))
    if gets <= idle:   # no GET left over: each runnable thread read once
        assert type_map.lookups == len(runnable)
    else:
        assert type_map.lookups == len(runnable) + victims_read


# ----------------------------------------------------------------------
# Token agent
# ----------------------------------------------------------------------
def test_token_agent_refills_and_gifts():
    from repro import Machine, set_a
    from repro.policies.token_agent import TokenAgent

    machine = Machine(set_a())
    app = machine.register_app("a", ports=[8080])
    token_map = app.create_map("token_map", size=16)
    agent = TokenAgent(machine, token_map, ls_user=1, be_user=2,
                       rate_per_sec=100_000, epoch_us=100.0)
    assert token_map.lookup(1) == 10  # initial grant
    # LS consumes 4 tokens this epoch
    token_map.bpf_map.update(1, 6)
    machine.run(until=150.0)
    agent.stop()
    machine.run()
    assert token_map.lookup(1) == 10  # refilled
    assert token_map.lookup(2) == 6   # leftovers gifted
    assert agent.epochs >= 1


def test_token_agent_rejects_zero_rate():
    from repro import Machine, set_a
    from repro.policies.token_agent import TokenAgent

    machine = Machine(set_a())
    app = machine.register_app("a", ports=[8080])
    token_map = app.create_map("token_map", size=16)
    with pytest.raises(ValueError):
        TokenAgent(machine, token_map, 1, 2, rate_per_sec=100, epoch_us=1.0)
