"""Late-binder internals: buffer mechanics, picks, capacity, chaining."""

import pytest

from conftest import assert_drained, record_flights
from repro import Machine, set_a
from repro.apps.rocksdb import RocksDbServer
from repro.core.late_binding import (
    LateBinder,
    fcfs_pick,
    shortest_first_pick,
)
from repro.net.packet import FiveTuple, Packet, build_payload
from repro.workload.requests import GET, Request, SCAN

FLOW = FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 17)


def make_setup(pick=None, capacity=4096):
    machine = Machine(set_a(), seed=71)
    app = machine.register_app("late", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 3)
    binder = LateBinder(machine, app, server, pick=pick, capacity=capacity)
    return machine, server, binder


def make_packet(rid, rtype=GET, service=10.0):
    request = Request(rid, rtype, service, key=rid)
    return Packet(FLOW, build_payload(rtype, 0, 0, rid), request=request)


def test_buffer_take_fcfs_order():
    machine, _server, binder = make_setup()
    for rid in range(3):
        binder._buffer_packet(make_packet(rid))
    machine.run()  # threads drain the buffer in order
    assert len(binder) == 0


def test_capacity_enforced():
    machine, server, binder = make_setup(capacity=2)
    # park the threads by not running the engine; overfill the buffer
    for thread in server.threads:
        thread.state = "running"  # prevent wakes from dispatching
    for rid in range(5):
        binder._buffer_packet(make_packet(rid))
    assert len(binder) == 2
    assert binder.drops == 3


def test_shortest_first_pick_selects_minimum():
    packets = [
        make_packet(1, SCAN, 700.0),
        make_packet(2, GET, 11.0),
        make_packet(3, SCAN, 650.0),
    ]
    assert shortest_first_pick(0, packets) == 1
    assert fcfs_pick(0, packets) == 0


def test_bad_pick_index_falls_back_to_head():
    machine, server, binder = make_setup(pick=lambda i, pkts: 999)
    for rid in range(3):
        binder._buffer_packet(make_packet(rid))
    machine.run()
    assert len(binder) == 0  # still drained despite the bad policy


def test_mid_buffer_take():
    taken = []

    def second_pick(i, pkts):
        return 1 if len(pkts) > 1 else 0

    machine, server, binder = make_setup(pick=second_pick)
    for thread in server.threads:
        thread.state = "running"
    for rid in range(3):
        binder._buffer_packet(make_packet(rid))
    pkt = binder._take(0)
    assert pkt.request.rid == 1
    assert len(binder) == 2


def test_hook_shim_only_claims_own_ports():
    machine, _server, binder = make_setup()
    shim = machine.netstack.socket_select_hook
    own = make_packet(1)
    foreign = Packet(FLOW._replace(dst_port=9999), build_payload(GET))
    assert shim.decide(own)[0] == "target"
    assert shim.decide(foreign) == ("none", None)
    assert shim.cost_us(own) > 0
    assert shim.cost_us(foreign) == 0.0


def test_buffered_packets_route_through_server_accounting():
    machine, server, binder = make_setup()
    from repro.workload.generator import OpenLoopGenerator
    from repro.workload.mixes import GET_ONLY

    gen = OpenLoopGenerator(machine, 8080, 30_000, GET_ONLY,
                            duration_us=20_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    # completions flowed through the server stats (inner source chaining)
    assert server.stats.completed.total() == gen.completed_in_window()
    assert gen.drop_fraction() == 0.0


def test_refused_packet_closes_its_span_tree_and_flight(monkeypatch):
    """A full central buffer is a drop like any other: the probe hears it,
    so no sampled tree stays live and no flight record keeps a stamp open."""
    from repro.workload.generator import OpenLoopGenerator
    from repro.workload.mixes import GET_ONLY

    machine = Machine(set_a(), seed=71, spans=1, accounting=True)
    app = machine.register_app("late", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 3)
    binder = LateBinder(machine, app, server, capacity=2)
    gen = OpenLoopGenerator(machine, 8080, 600_000, GET_ONLY,
                            duration_us=5_000, tenant="alpha")
    server.response_sink = gen.deliver_response
    gen.start()
    flights = record_flights(monkeypatch)
    machine.run()

    assert binder.drops > 0 and len(binder) == 0
    assert_drained(machine.obs.probe, flights)
    assert machine.obs.spans.live == 0
    aborted = machine.obs.spans.trees(complete=False)
    assert len(aborted) == binder.drops
    assert {t["abort_reason"] for t in aborted} == {"late_bind_overflow"}
    ledger = machine.obs.acct.ledgers["alpha"]
    assert ledger.drops == {"late_bind_overflow": binder.drops}
