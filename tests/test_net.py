"""Tests for packets, RSS, and the NIC model."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CostModel, NicSpec
from repro.ebpf.compiler import compile_policy
from repro.ebpf.program import load_program
from repro.net.nic import Nic
from repro.net.packet import (
    APP_TYPE_OFF,
    APP_USER_OFF,
    FiveTuple,
    Packet,
    PacketView,
    WireView,
    build_payload,
)
from repro.net.rss import MEMO_SIZE, rss_hash, rss_queue
from repro.qdisc.discipline import ThreadCtx
from repro.sim.engine import Engine
from repro.workload.requests import Request

FLOW = FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 17)


# ----------------------------------------------------------------------
# Packet
# ----------------------------------------------------------------------
def test_packet_header_fields():
    pkt = Packet(FLOW, b"payload")
    assert pkt.load(0, 2) == FLOW.src_port
    assert pkt.load(2, 2) == FLOW.dst_port
    assert pkt.load(4, 2) == 8 + 7  # UDP length
    assert pkt.dst_port == 8080


def test_packet_payload_layout():
    payload = build_payload(2, user_id=9, key_hash=77, req_id=123)
    pkt = Packet(FLOW, payload)
    assert pkt.load(APP_TYPE_OFF, 8) == 2
    assert pkt.load(APP_USER_OFF, 8) == 9
    assert pkt.load(24, 8) == 77
    assert pkt.load(32, 8) == 123
    assert pkt.length == 8 + 32


def test_packet_out_of_bounds_raises():
    pkt = Packet(FLOW, b"abc")
    with pytest.raises(IndexError):
        pkt.load(8, 8)
    with pytest.raises(IndexError):
        pkt.load(-1, 1)


def test_packet_partial_widths():
    pkt = Packet(FLOW, bytes(range(16)))
    assert pkt.load(8, 1) == 0
    assert pkt.load(9, 1) == 1
    assert pkt.load(8, 2) == 0x0100


def test_packet_needs_a_payload_or_a_request():
    with pytest.raises(ValueError):
        Packet(FLOW, None)


# -- bytes on demand: the lazily built datagram is the eager layout -----
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u64 = st.integers(0, (1 << 64) - 1)
flows = st.builds(FiveTuple, u32, u16, u32, u16, st.sampled_from([6, 17]))
app_fields = st.tuples(u64, u64, u64, u64)  # rtype, user id, key hash, rid


def eager_layout(src_port, dst_port, payload):
    """The wire layout as Packet.__init__ used to build it, eagerly."""
    return struct.pack(
        "<HHHH", src_port, dst_port, 8 + len(payload), 0) + payload


def assert_reads_like(packet, expected):
    assert packet.length == len(expected)   # before any byte exists
    assert packet.data == expected
    assert packet.length == len(expected)
    for offset, width in ((0, 2), (2, 2), (len(expected) - 1, 1)):
        assert packet.load(offset, width) == int.from_bytes(
            expected[offset:offset + width], "little")
    for offset, width in ((-1, 1), (len(expected), 1),
                          (len(expected) - 7, 8)):
        with pytest.raises(IndexError):
            packet.load(offset, width)


@given(flows, app_fields)
def test_packet_without_payload_builds_the_requests_header(flow, fields):
    rtype, user_id, key_hash, rid = fields
    request = Request(rid, rtype, 1.0, user_id=user_id, key_hash=key_hash)
    expected = eager_layout(
        flow.src_port, flow.dst_port,
        build_payload(rtype, user_id, key_hash, rid))
    assert_reads_like(Packet(flow, None, request=request), expected)
    # load() alone materialises too, and is bounds-checked before it does
    fresh = Packet(flow, None, request=request)
    with pytest.raises(IndexError):
        fresh.load(len(expected), 1)
    assert fresh.load(APP_TYPE_OFF, 8) == rtype
    assert (fresh.dst_port, fresh.is_tcp) == (flow.dst_port, flow.proto == 6)


@given(flows, app_fields, st.binary(max_size=48), st.booleans())
def test_packet_with_explicit_payload_keeps_it(flow, fields, extra, raw):
    payload = extra if raw else build_payload(*fields, extra=extra)
    expected = eager_layout(flow.src_port, flow.dst_port, payload)
    # the request, when also given, does not override the payload
    request = Request(1, 2, 1.0, user_id=3, key_hash=4)
    assert_reads_like(Packet(flow, payload), expected)
    assert_reads_like(Packet(flow, payload, request=request), expected)


@given(app_fields, u16, u16)
def test_packet_view_is_the_same_layout(fields, src_port, dst_port):
    rtype, user_id, key_hash, rid = fields
    view = PacketView(rtype, user_id=user_id, key_hash=key_hash, rid=rid,
                      src_port=src_port, dst_port=dst_port)
    assert_reads_like(view, eager_layout(
        src_port, dst_port, build_payload(rtype, user_id, key_hash, rid)))


READ_ALL = """
def schedule(pkt):
    if pkt_len(pkt) < 16:
        return PASS
    return (load_u64(pkt, 0) ^ load_u32(pkt, 8)
            ^ load_u16(pkt, 12) ^ load_u8(pkt, 15))
"""


@settings(max_examples=40, deadline=None)
@given(flows, app_fields, u32)
def test_interpreter_and_jit_read_every_view_through_one_load(
        flow, fields, tid):
    assert "load" not in vars(Packet)
    assert "load" not in vars(PacketView)
    assert "load" not in vars(ThreadCtx)
    assert Packet.load is PacketView.load is ThreadCtx.load is WireView.load
    rtype, user_id, key_hash, rid = fields
    request = Request(rid, rtype, 1.0, user_id=user_id, key_hash=key_hash)
    program = compile_policy(READ_ALL)
    for make in (
        lambda: Packet(flow, None, request=request),
        lambda: Packet(flow, build_payload(*fields)),
        lambda: PacketView(rtype, user_id, key_hash, rid,
                           flow.src_port, flow.dst_port),
        lambda: ThreadCtx(tid),
    ):
        data = make().data
        expected = (
            int.from_bytes(data[0:8], "little")
            ^ int.from_bytes(data[8:12], "little")
            ^ int.from_bytes(data[12:14], "little") ^ data[15]
        )
        # fresh, unmaterialised inputs for each engine
        assert load_program(program).run_interp(make()).value == expected
        assert load_program(program).run_jit(make()) == expected


# ----------------------------------------------------------------------
# RSS
# ----------------------------------------------------------------------
@given(flows, st.integers(0, 1 << 40))
def test_memoised_rss_hash_equals_the_plain_function(flow, salt):
    plain = rss_hash.__wrapped__
    assert rss_hash(flow, salt) == plain(flow, salt)   # miss or hit
    assert rss_hash(flow, salt) == plain(flow, salt)   # hit
    assert rss_hash(flow, salt=salt) == plain(flow, salt)


def test_rss_memo_stays_bounded():
    for i in range(MEMO_SIZE + 500):
        rss_hash(FLOW._replace(src_ip=i), 0xB0B)
    assert rss_hash.cache_info().currsize <= MEMO_SIZE
    # evicted flows still hash the same when they come back
    first = FLOW._replace(src_ip=0)
    assert rss_hash(first, 0xB0B) == rss_hash.__wrapped__(first, 0xB0B)


def test_rss_deterministic_per_flow():
    assert rss_hash(FLOW) == rss_hash(FLOW)
    assert rss_queue(FLOW, 8) == rss_queue(FLOW, 8)


def test_rss_salt_changes_mapping():
    flows = [FLOW._replace(src_port=40000 + i) for i in range(64)]
    a = [rss_queue(f, 8, salt=1) for f in flows]
    b = [rss_queue(f, 8, salt=2) for f in flows]
    assert a != b


def test_rss_roughly_uniform_over_many_flows():
    flows = [FLOW._replace(src_port=30000 + i, src_ip=i) for i in range(4000)]
    buckets = [0] * 8
    for f in flows:
        buckets[rss_queue(f, 8)] += 1
    assert min(buckets) > 350  # ~500 expected per bucket


def test_rss_small_pools_are_imbalanced_sometimes():
    """The Figure-2 premise: 50 flows into 6 buckets is frequently lopsided."""
    worst = 0
    for salt in range(30):
        flows = [FLOW._replace(src_port=40000 + i) for i in range(50)]
        buckets = [0] * 6
        for f in flows:
            buckets[rss_queue(f, 6, salt=salt)] += 1
        worst = max(worst, max(buckets))
    assert worst >= 12  # >=40% above the fair share of 8.33


# ----------------------------------------------------------------------
# NIC
# ----------------------------------------------------------------------
def make_nic(**spec_kwargs):
    engine = Engine()
    spec = NicSpec(num_queues=4, **spec_kwargs)
    nic = Nic(engine, spec, CostModel(), salt=7)
    return engine, nic


def test_nic_delivers_after_delay():
    engine, nic = make_nic()
    seen = []
    nic.deliver = lambda q, p: seen.append((engine.now, q, p))
    pkt = Packet(FLOW, b"x")
    nic.receive(pkt)
    engine.run()
    assert len(seen) == 1
    t, q, delivered = seen[0]
    assert t == pytest.approx(nic.spec.rx_process_us + nic.costs.irq_delay_us)
    assert q == rss_queue(FLOW, 4, salt=7)
    assert delivered.rx_queue == q


def test_nic_without_handler_counts_drop():
    _engine, nic = make_nic()
    nic.receive(Packet(FLOW, b"x"))
    assert nic.drops["no_handler"] == 1


def test_nic_offload_requires_capability():
    _engine, nic = make_nic(supports_offload=False)
    with pytest.raises(ValueError):
        nic.attach_classifier(object())


class _StaticClassifier:
    def __init__(self, action, target=None):
        self.action = action
        self.target = target

    def decide(self, packet):
        return (self.action, self.target)

    def cost_us(self, packet):
        return 0.0


def test_nic_offload_classifier_steers():
    engine, nic = make_nic(supports_offload=True)
    nic.attach_classifier(_StaticClassifier("target", 2))
    seen = []
    nic.deliver = lambda q, p: seen.append(q)
    nic.receive(Packet(FLOW, b"x"))
    engine.run()
    assert seen == [2]


def test_nic_offload_drop():
    engine, nic = make_nic(supports_offload=True)
    nic.attach_classifier(_StaticClassifier("drop"))
    nic.deliver = lambda q, p: (_ for _ in ()).throw(AssertionError)
    nic.receive(Packet(FLOW, b"x"))
    engine.run()
    assert nic.drops["offload_drop"] == 1


def test_nic_offload_pass_falls_back_to_rss():
    engine, nic = make_nic(supports_offload=True)
    nic.attach_classifier(_StaticClassifier("pass"))
    seen = []
    nic.deliver = lambda q, p: seen.append(q)
    nic.receive(Packet(FLOW, b"x"))
    engine.run()
    assert seen == [rss_queue(FLOW, 4, salt=7)]
