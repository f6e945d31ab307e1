"""Tests for the §6 extensions: late binding, KCM streams, storage."""

import struct

import pytest

from repro import Hook, Machine, set_a
from repro.apps.rocksdb import RocksDbServer
from repro.core.late_binding import LateBinder, fcfs_pick, shortest_first_pick
from repro.kernel.streams import (
    KcmMultiplexor,
    StreamConnection,
    length_prefixed_framer,
)
from repro.policies.builtin import ROUND_ROBIN
from repro.sim.engine import Engine
from repro.storage.device import FlashCosts, IoRequest, NvmeDevice
from repro.storage.iosched import IoHook, IoTokenPolicy
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY, GET_SCAN_995_005
from repro.workload.requests import GET


# ----------------------------------------------------------------------
# Late binding
# ----------------------------------------------------------------------
def run_late(pick=None, mix=GET_SCAN_995_005, rate=120_000, duration=120_000):
    machine = Machine(set_a(), seed=21)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6)
    binder = LateBinder(machine, app, server, pick=pick)
    gen = OpenLoopGenerator(machine, 8080, rate, mix, duration_us=duration,
                            warmup_us=duration / 4)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    return machine, server, binder, gen


def test_late_binding_serves_everything():
    _m, _s, binder, gen = run_late(mix=GET_ONLY, rate=60_000, duration=40_000)
    assert gen.drop_fraction() == 0.0
    # every datagram (including warmup traffic) went through the buffer
    assert binder.buffered_total >= gen.sent_in_window()
    assert len(binder) == 0  # fully drained


def test_late_binding_removes_hol_blocking():
    """§6.3's promise: no GET stuck behind a SCAN in a socket queue."""
    machine = Machine(set_a(), seed=21)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    gen = OpenLoopGenerator(machine, 8080, 120_000, GET_SCAN_995_005,
                            duration_us=120_000, warmup_us=30_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    early_p99 = gen.latency.p99(tag=GET)

    _m, _s, _b, late_gen = run_late()
    assert late_gen.latency.p99(tag=GET) < early_p99 / 3


def test_late_binding_shortest_first_beats_fcfs_for_gets():
    _m, _s, _b, fcfs = run_late(pick=fcfs_pick, rate=250_000)
    _m2, _s2, _b2, sjf = run_late(pick=shortest_first_pick, rate=250_000)
    assert sjf.latency.p99(tag=GET) <= fcfs.latency.p99(tag=GET)


def test_late_binding_conflicts_with_early_policy():
    machine = Machine(set_a(), seed=21)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    with pytest.raises(ValueError):
        LateBinder(machine, app, server)


# ----------------------------------------------------------------------
# KCM streams
# ----------------------------------------------------------------------
def frame(payload):
    return struct.pack("<I", len(payload)) + payload


def test_framer_incomplete_returns_none():
    assert length_prefixed_framer(bytearray(b"\x05\x00")) is None
    assert length_prefixed_framer(bytearray(frame(b"abc")[:-1])) is None


def test_framer_extracts_exactly_one():
    buf = bytearray(frame(b"abc") + frame(b"de"))
    consumed, payload = length_prefixed_framer(buf)
    assert payload == b"abc"
    assert consumed == 4 + 3


def test_kcm_reassembles_across_segments():
    got = []
    kcm = KcmMultiplexor(workers=[got.append])
    data = frame(b"hello") + frame(b"world")
    # deliver byte by byte: worst-case fragmentation
    for i in range(len(data)):
        kcm.receive_segment(1, data[i : i + 1])
    assert got == [b"hello", b"world"]
    assert kcm.pending_bytes(1) == 0


def test_kcm_handles_coalesced_segments():
    got = []
    kcm = KcmMultiplexor(workers=[got.append])
    kcm.receive_segment(1, frame(b"a") + frame(b"bb") + frame(b"ccc"))
    assert got == [b"a", b"bb", b"ccc"]


def test_kcm_connections_do_not_interfere():
    got = []
    kcm = KcmMultiplexor(workers=[got.append])
    kcm.receive_segment(1, frame(b"one")[:3])
    kcm.receive_segment(2, frame(b"two"))
    assert got == [b"two"]
    kcm.receive_segment(1, frame(b"one")[3:])
    assert got == [b"two", b"one"]


def test_kcm_round_robin_default():
    a, b = [], []
    kcm = KcmMultiplexor(workers=[a.append, b.append])
    kcm.receive_segment(1, frame(b"1") + frame(b"2") + frame(b"3"))
    assert (len(a), len(b)) == (2, 1)


def test_kcm_custom_schedule():
    a, b = [], []
    kcm = KcmMultiplexor(
        workers=[a.append, b.append],
        schedule=lambda conn, payload: len(payload),  # odd lengths -> b
    )
    kcm.receive_segment(1, frame(b"xx") + frame(b"y"))
    assert a == [b"xx"] and b == [b"y"]


def test_kcm_counts_a_framer_that_consumes_nothing():
    got = []
    kcm = KcmMultiplexor(framer=lambda buf: (0, b""), workers=[got.append])
    kcm.receive_segment(1, frame(b"x"))
    assert kcm.malformed == 1 and got == []


def test_kcm_requires_workers():
    kcm = KcmMultiplexor()
    with pytest.raises(RuntimeError):
        kcm.receive_segment(1, frame(b"x"))


def test_stream_connection_counters():
    conn = StreamConnection(5)
    conn.feed(b"abc")
    assert conn.bytes_received == 3
    assert conn.conn_id == 5


# ----------------------------------------------------------------------
# Storage
# ----------------------------------------------------------------------
def test_io_request_validation():
    with pytest.raises(ValueError):
        IoRequest(1, "erase", 0)


def test_device_write_then_read_roundtrip():
    eng = Engine()
    dev = NvmeDevice(eng, num_queues=2)
    done = []
    dev.submit(0, IoRequest(1, "write", lba=7), done.append)
    eng.run()
    dev.submit(0, IoRequest(2, "read", lba=7), done.append)
    eng.run()
    assert [r.rid for r in done] == [1, 2]
    assert dev.read_back(7) == 1
    assert dev.read_misses == 0


def test_device_read_latency_exceeds_write():
    eng = Engine()
    dev = NvmeDevice(eng, num_queues=1)
    reqs = [IoRequest(1, "write", 0), IoRequest(2, "read", 0)]
    for r in reqs:
        dev.submit(0, r)
    eng.run()
    write_lat = reqs[0].latency_us
    read_lat = reqs[1].latency_us - write_lat  # served back to back
    assert read_lat > write_lat


def test_device_size_dependent_cost():
    eng = Engine()
    dev = NvmeDevice(eng)
    small = IoRequest(1, "read", 0, size_kb=4)
    large = IoRequest(2, "read", 0, size_kb=256)
    assert dev.service_us(large) > dev.service_us(small)


def test_device_queue_depth_rejection():
    eng = Engine()
    dev = NvmeDevice(eng, num_queues=1, queue_depth=2)
    results = [dev.submit(0, IoRequest(i, "read", 0)) for i in range(6)]
    assert not all(results)
    assert dev.rejected > 0


def test_device_lba_bounds():
    eng = Engine()
    dev = NvmeDevice(eng, capacity_lbas=100)
    with pytest.raises(ValueError):
        dev.submit(0, IoRequest(1, "read", 100))


def test_io_hook_default_stripes():
    eng = Engine()
    dev = NvmeDevice(eng, num_queues=4)
    hook = IoHook(dev)
    for i in range(8):
        hook.submit(IoRequest(i, "read", i))
    eng.run()
    assert all(q.served == 2 for q in dev.queues)


def test_token_policy_protects_provisioned_tenant():
    eng = Engine()
    dev = NvmeDevice(eng, num_queues=4)
    policy = IoTokenPolicy(eng, epoch_us=100.0)
    policy.provision(tenant=1, rate_iops=50_000, queue=0)
    hook = IoHook(dev, policy)
    lc_done, be_done = [], []
    rid = [0]

    def issue(tenant, sink):
        rid[0] += 1
        hook.submit(IoRequest(rid[0], "read", rid[0] % 100, tenant=tenant),
                    sink.append)

    # best-effort tenant floods; LC tenant issues a steady trickle
    for t in range(0, 10_000, 10):
        eng.at(float(t), issue, 2, be_done)
    for t in range(0, 10_000, 100):
        eng.at(float(t), issue, 1, lc_done)
    eng.run(until=30_000)
    policy.stop()
    eng.run()
    assert lc_done and be_done
    lc_p95 = sorted(r.latency_us for r in lc_done)[int(0.95 * len(lc_done))]
    be_p95 = sorted(r.latency_us for r in be_done)[int(0.95 * len(be_done))]
    # the provisioned tenant's dedicated queue keeps its tail flat
    assert lc_p95 < be_p95 / 3


def test_token_policy_rejects_over_rate():
    eng = Engine()
    dev = NvmeDevice(eng, num_queues=2)
    policy = IoTokenPolicy(eng, epoch_us=100.0)
    policy.provision(tenant=1, rate_iops=10_000, queue=0)  # 1 token/epoch
    hook = IoHook(dev, policy)
    accepted = [
        hook.submit(IoRequest(i, "read", 0, tenant=1)) for i in range(5)
    ]
    policy.stop()
    eng.run()
    assert accepted.count(True) == 1
    assert policy.rejections == 4
    assert hook.dropped == 4
