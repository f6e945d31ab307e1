"""Unit tests for repro.qdisc: backends, rank compilation, the Qdisc.

Locks the subsystem's determinism contracts at the smallest scope:
exact-PIFO tie-breaks, the bucketed queue's coarsening/clamping, the
drop-lowest-rank overflow policy (and its collapse to drop-tail when
every rank is equal), per-app port isolation, and rank-fault containment
(the element survives with the FIFO rank; the listener hears about it).
"""

import pytest

from repro.constants import DROP, PASS
from repro.ebpf.compiler import compile_policy
from repro.ebpf.errors import CompileError, VmFault
from repro.ebpf.program import load_program
from repro.kernel.sockets import UdpSocket
from repro.net.packet import FiveTuple, Packet, build_payload
from repro.qdisc import (
    BucketQueue,
    PifoQueue,
    OfferResult,
    Qdisc,
    ThreadCtx,
    compile_rank,
    make_backend,
    qdisc_hook,
)
from repro.qdisc.discipline import FIFO


def make_packet(req_type, port=8080, user_id=0):
    flow = FiveTuple("10.0.0.1", 1234, "10.0.0.2", port, 17)
    return Packet(flow, build_payload(req_type, user_id=user_id))


class RankByType:
    """Stand-in loaded program: rank = the packet's u64 request type."""

    name = "rank_by_type"

    def run(self, pkt):
        return pkt.load(8, 8)


class AlwaysFault:
    name = "always_fault"

    def run(self, pkt):
        raise VmFault("injected")


class Decide:
    """Stand-in program returning a canned decision."""

    name = "decide"

    def __init__(self, decision):
        self.decision = decision

    def run(self, pkt):
        return self.decision


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def test_pifo_orders_by_rank():
    q = PifoQueue()
    for rank, item in [(5, "e"), (1, "a"), (3, "c"), (2, "b")]:
        q.push(rank, item)
    assert [q.pop() for _ in range(4)] == ["a", "b", "c", "e"]
    assert q.pop() is None


def test_pifo_ties_break_by_arrival():
    q = PifoQueue()
    for item in "abcd":
        q.push(7, item)
    assert [q.pop() for _ in range(4)] == list("abcd")


def test_pifo_worst_removes_largest_rank():
    q = PifoQueue()
    q.push(1, "keep")
    q.push(9, "victim")
    q.push(5, "mid")
    rank, item = q.worst()
    assert (rank, item) == (9, "victim")
    assert len(q) == 2
    assert [q.pop(), q.pop()] == ["keep", "mid"]


def test_pifo_worst_all_equal_is_drop_tail():
    q = PifoQueue()
    for item in "abc":
        q.push(0, item)
    _rank, item = q.worst()
    assert item == "c"  # newest arrival sheds first
    assert [q.pop(), q.pop()] == ["a", "b"]


def test_bucket_orders_by_bucket_fifo_within():
    q = BucketQueue(num_buckets=8, bucket_width=10)
    q.push(25, "scan1")
    q.push(3, "get1")
    q.push(7, "get2")  # same bucket as get1, later arrival
    q.push(21, "scan2")
    assert [q.pop() for _ in range(4)] == ["get1", "get2", "scan1", "scan2"]
    assert len(q) == 0 and q.pop() is None


def test_bucket_clamps_past_horizon():
    q = BucketQueue(num_buckets=4, bucket_width=10)
    q.push(1_000_000, "huge")
    q.push(39, "edge")  # also the last bucket (index 3)
    q.push(0, "front")
    assert q.pop() == "front"
    # huge clamped into bucket 3; FIFO with "edge" by arrival
    assert [q.pop(), q.pop()] == ["huge", "edge"]


def test_bucket_worst_takes_highest_bucket_newest():
    q = BucketQueue(num_buckets=8, bucket_width=10)
    q.push(5, "low")
    q.push(45, "old_high")
    q.push(41, "new_high")  # same bucket, newest
    rank, item = q.worst()
    assert (rank, item) == (41, "new_high")
    assert q.pop() == "low"


def test_bucket_rejects_bad_geometry():
    with pytest.raises(ValueError):
        BucketQueue(num_buckets=0)
    with pytest.raises(ValueError):
        BucketQueue(bucket_width=0)


def test_make_backend():
    assert isinstance(make_backend("pifo"), PifoQueue)
    bucket = make_backend("bucket", num_buckets=16, bucket_width=4)
    assert bucket.num_buckets == 16 and bucket.bucket_width == 4
    with pytest.raises(ValueError, match="unknown qdisc backend"):
        make_backend("cbq")


# ----------------------------------------------------------------------
# compile_rank
# ----------------------------------------------------------------------
RANK_BY_TYPE_SRC = """
def rank(pkt):
    if pkt_len(pkt) < 16:
        return PASS
    return load_u64(pkt, 8)
"""


def test_compile_rank_runs_through_policy_pipeline():
    program = compile_rank(RANK_BY_TYPE_SRC)
    assert program.name == "rank"
    loaded = load_program(program)
    assert loaded.run(make_packet(42)) == 42


def test_compile_rank_requires_rank_function():
    with pytest.raises(CompileError, match="rank"):
        compile_rank("def schedule(pkt):\n    return 0\n")


def test_compile_rank_finds_its_entry_in_the_ast_not_the_text():
    # a docstring line that reads like the entry point is only text
    source = ('"""Ranks by request type.\n'
              'def rank(pkt) is the entry point.\n"""\n' + RANK_BY_TYPE_SRC)
    program = compile_rank(source)
    assert program.name == "rank"
    assert load_program(program).run(make_packet(42)) == 42
    with pytest.raises(CompileError, match="'schedule'"):
        compile_policy(source)


def test_compile_rank_accepts_callable():
    def rank(pkt):
        return 7

    loaded = load_program(compile_rank(rank))
    assert loaded.run(make_packet(1)) == 7


def test_qdisc_hook_labels():
    assert qdisc_hook("socket") == "qdisc:socket"
    assert qdisc_hook("nic_rx") == "qdisc:nic_rx"
    with pytest.raises(ValueError, match="unknown qdisc layer"):
        qdisc_hook("tc")


def test_thread_ctx_is_packet_shaped():
    ctx = ThreadCtx(99)
    assert ctx.length == 16
    assert ctx.load(0, 8) == 99
    assert ctx.load(8, 8) == 0
    with pytest.raises(IndexError):
        ctx.load(12, 8)


# ----------------------------------------------------------------------
# Qdisc
# ----------------------------------------------------------------------
def test_qdisc_dequeues_in_rank_order():
    q = Qdisc("app", "socket", program=RankByType())
    for rtype in (700, 10, 300):
        assert q.offer(make_packet(rtype)).accepted
    out = [q.take().load(8, 8) for _ in range(3)]
    assert out == [10, 300, 700]
    assert q.enqueues == 3 and q.dequeues == 3
    assert (q.rank_min, q.rank_max) == (10, 700)


def test_qdisc_pass_and_drop_decisions():
    q = Qdisc("app", "socket", program=Decide(PASS))
    result = q.offer(make_packet(1))
    assert result.accepted and result.rank == FIFO

    q = Qdisc("app", "socket", program=Decide(DROP))
    result = q.offer(make_packet(1))
    assert not result.accepted and result.reason == "sched_drop"
    assert q.sched_drops == 1 and len(q) == 0


def test_qdisc_overflow_sheds_lowest_priority():
    q = Qdisc("app", "socket", program=RankByType())
    q.offer(make_packet(700))
    q.offer(make_packet(10))
    # Full (capacity 2): a low-rank arrival evicts the queued 700.
    result = q.offer(make_packet(20), capacity=2)
    assert result.accepted and result.reason == "overflow"
    assert result.evicted.load(8, 8) == 700
    assert q.evictions == 1 and q.overflow_drops == 1
    assert [q.take().load(8, 8), q.take().load(8, 8)] == [10, 20]


def test_qdisc_overflow_rejects_worst_arrival():
    q = Qdisc("app", "socket", program=RankByType())
    q.offer(make_packet(10))
    q.offer(make_packet(20))
    result = q.offer(make_packet(700), capacity=2)
    assert not result.accepted and result.reason == "overflow"
    assert q.evictions == 0 and q.overflow_drops == 1
    assert len(q) == 2


def test_qdisc_overflow_all_equal_collapses_to_drop_tail():
    q = Qdisc("app", "socket", program=Decide(PASS))
    first, second = make_packet(1), make_packet(2)
    q.offer(first)
    q.offer(second)
    result = q.offer(make_packet(3), capacity=2)
    # the arrival is the newest equal-rank entry, so it is the victim
    assert not result.accepted and result.reason == "overflow"
    assert q.take() is first and q.take() is second


def test_qdisc_port_isolation_skips_foreign_traffic():
    q = Qdisc("app", "socket", program=RankByType(), ports=[8080])
    mine = q.offer(make_packet(500, port=8080))
    foreign = q.offer(make_packet(500, port=9999))
    assert mine.rank == 500
    assert foreign.rank == FIFO  # ranked FIFO without running the program


def test_qdisc_fault_containment():
    heard = []
    q = Qdisc("app", "socket", program=AlwaysFault())
    q.fault_listener = lambda qdisc, exc: heard.append((qdisc, exc))
    packet = make_packet(1)
    result = q.offer(packet)
    assert result.accepted and result.rank == FIFO  # element never lost
    assert q.runtime_faults == 1
    assert len(heard) == 1 and heard[0][0] is q
    assert isinstance(heard[0][1], VmFault)
    assert q.take() is packet


def test_qdisc_revert_to_fifo_keeps_queued_ranks():
    q = Qdisc("app", "socket", program=RankByType())
    q.offer(make_packet(700))
    q.offer(make_packet(10))
    q.revert_to_fifo()
    assert q.state == "fifo"
    # queued elements drain in their assigned rank order ...
    assert q.take().load(8, 8) == 10
    # ... while new arrivals rank FIFO (ahead of the queued 700)
    q.offer(make_packet(999))
    assert q.take().load(8, 8) == 999
    assert q.take().load(8, 8) == 700


def test_qdisc_order_sorts_snapshot_without_owning():
    q = Qdisc("app", "runqueue", program=RankByType())
    q.offer(make_packet(5))  # queued state must survive order()
    snapshot = [make_packet(30), make_packet(10), make_packet(20)]
    ordered = q.order(snapshot)
    assert [p.load(8, 8) for p in ordered] == [10, 20, 30]
    assert len(q) == 1
    assert q.order([snapshot[0]]) == [snapshot[0]]  # <2: untouched


def test_qdisc_order_with_ctx_factory():
    class RankByTid:
        name = "rank_by_tid"

        def run(self, ctx):
            return ctx.load(0, 8)

    class FakeThread:
        def __init__(self, tid):
            self.tid = tid

    q = Qdisc("app", "runqueue", program=RankByTid())
    threads = [FakeThread(3), FakeThread(1), FakeThread(2)]
    ordered = q.order(threads, ctx_factory=lambda t: ThreadCtx(t.tid))
    assert [t.tid for t in ordered] == [1, 2, 3]


def test_qdisc_snapshot_row():
    q = Qdisc("app", "socket", backend="bucket", program=RankByType())
    q.target = "sid:1"
    q.offer(make_packet(10))
    row = q.snapshot()
    assert row["backend"] == "bucket" and row["target"] == "sid:1"
    assert row["state"] == "active" and row["depth"] == 1
    assert row["rank_mean"] == 10 and row["program"] == "rank_by_type"


def test_offer_result_repr_smoke():
    assert "accepted=True" in repr(OfferResult(True, rank=3))


# ----------------------------------------------------------------------
# Socket backlog under a discipline (the overflow-policy satellite)
# ----------------------------------------------------------------------
def test_socket_qdisc_overflow_drop_policy():
    socket = UdpSocket(8080, app="app", backlog=2)
    socket.set_qdisc(Qdisc("app", "socket", program=RankByType()))
    assert socket.enqueue(make_packet(700))
    assert socket.enqueue(make_packet(10))
    # Backlog full: the low-rank arrival displaces the queued SCAN.
    assert socket.enqueue(make_packet(20))
    assert socket.drops == 1 and len(socket) == 2
    assert [socket.pop().load(8, 8), socket.pop().load(8, 8)] == [10, 20]
    # Refill; a worst-rank arrival is itself shed (still one drop each).
    socket.enqueue(make_packet(10))
    socket.enqueue(make_packet(20))
    assert not socket.enqueue(make_packet(700))
    assert socket.drops == 2 and len(socket) == 2


def test_socket_fifo_discipline_matches_drop_tail():
    plain = UdpSocket(8080, app="app", backlog=2)
    disciplined = UdpSocket(8080, app="app", backlog=2)
    disciplined.set_qdisc(Qdisc("app", "socket", program=Decide(PASS)))
    arrivals = [make_packet(i) for i in range(1, 5)]
    accepted_plain = [plain.enqueue(p) for p in arrivals]
    accepted_disc = [disciplined.enqueue(p) for p in arrivals]
    assert accepted_plain == accepted_disc == [True, True, False, False]
    assert plain.drops == disciplined.drops == 2
    order_plain = [plain.pop().load(8, 8) for _ in range(2)]
    order_disc = [disciplined.pop().load(8, 8) for _ in range(2)]
    assert order_plain == order_disc == [1, 2]


def test_socket_clear_qdisc_drains_into_fifo_backlog():
    socket = UdpSocket(8080, app="app", backlog=8)
    socket.set_qdisc(Qdisc("app", "socket", program=RankByType()))
    for rtype in (700, 10, 300):
        socket.enqueue(make_packet(rtype))
    qdisc = socket.clear_qdisc()
    assert socket.qdisc is None and len(qdisc) == 0
    # drained in rank order into the plain deque; nothing stranded
    assert [socket.pop().load(8, 8) for _ in range(3)] == [10, 300, 700]
    assert socket.pop() is None


def test_socket_late_binding_queue_drains_first():
    socket = UdpSocket(8080, app="app", backlog=8)
    socket.set_qdisc(Qdisc("app", "socket", program=RankByType()))
    socket.enqueue(make_packet(10))
    direct = make_packet(999)
    socket.queue.append(direct)  # late-binding handoff path
    assert socket.pop() is direct
    assert socket.pop().load(8, 8) == 10
