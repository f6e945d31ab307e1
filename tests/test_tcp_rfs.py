"""Tests for TCP connection scheduling and RFS locality."""

import pytest

from repro import Hook, Machine
from repro.apps.netperf import EchoServer, RFS_TABLE_SIZE
from repro.apps.rocksdb import RocksDbServer
from repro.config import set_a, with_costs
from repro.net.packet import FiveTuple, Packet, build_payload
from repro.policies import RFS_STEERING, ROUND_ROBIN
from repro.workload.requests import GET, Request
from repro.workload.tcp_rr import TcpRRGenerator

TCP_FLOW = FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 6)


def tcp_packet(flow=TCP_FLOW, rid=1):
    request = Request(rid, GET, 1.0)
    return Packet(flow, build_payload(GET, 0, 0, rid), request=request)


# ----------------------------------------------------------------------
# Connection-level scheduling
# ----------------------------------------------------------------------
def test_tcp_connection_pins_to_first_socket():
    machine = Machine(set_a(), seed=41)
    app = machine.register_app("srv", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4)
    for rid in range(5):
        machine.netstack.deliver_from_nic(0, tcp_packet(rid=rid))
    machine.run()
    counts = [s.enqueued for s in server.sockets]
    assert sorted(counts, reverse=True)[0] == 5  # all on one socket
    assert TCP_FLOW in machine.netstack.tcp_connections


def test_tcp_round_robin_is_per_connection_not_per_packet():
    machine = Machine(set_a(), seed=41)
    app = machine.register_app("srv", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 4)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 4})
    flows = [TCP_FLOW._replace(src_port=50000 + i) for i in range(4)]
    # 3 packets per connection, interleaved
    for rid in range(3):
        for flow in flows:
            machine.netstack.deliver_from_nic(0, tcp_packet(flow, rid))
    machine.run()
    # each connection's packets stayed together: each socket saw one conn
    assert [s.enqueued for s in server.sockets] == [3, 3, 3, 3]
    assigned = {machine.netstack.tcp_connections[f].sid for f in flows}
    assert len(assigned) == 4


def test_udp_flows_are_not_pinned():
    machine = Machine(set_a(), seed=41)
    app = machine.register_app("srv", ports=[8080])
    RocksDbServer(machine, app, 8080, 4)
    udp_flow = TCP_FLOW._replace(proto=17)
    machine.netstack.deliver_from_nic(0, tcp_packet(udp_flow))
    machine.run()
    assert udp_flow not in machine.netstack.tcp_connections


# ----------------------------------------------------------------------
# RFS
# ----------------------------------------------------------------------
def run_tcp_rr(rfs, connections=32, duration=60_000):
    config = with_costs(set_a(), remote_softirq_us=7.0)
    machine = Machine(config, seed=42)
    app = machine.register_app("netperf", ports=[5201])
    server = EchoServer(machine, app, 5201, num_threads=6, rfs=rfs)
    if rfs:
        app.deploy_policy(RFS_STEERING, Hook.CPU_REDIRECT)
    gen = TcpRRGenerator(machine, 5201, num_connections=connections,
                         duration_us=duration, warmup_us=duration / 4).start()
    server.response_sink = gen.deliver_response
    machine.run()
    return machine, server, gen


def test_echo_server_publishes_rfs_table():
    machine, server, gen = run_tcp_rr(rfs=True, connections=8,
                                      duration=10_000)
    assert server.rfs_map is not None
    entries = server.rfs_map.items()
    assert 0 < len(entries) <= 8
    softirq_cores = len(machine.netstack.softirq)
    assert all(0 <= core < softirq_cores for _k, core in entries)


def test_rfs_improves_tcp_rr_throughput():
    _m1, _s1, base = run_tcp_rr(rfs=False)
    _m2, _s2, rfs = run_tcp_rr(rfs=True)
    assert rfs.transactions_per_sec() > 1.5 * base.transactions_per_sec()
    assert rfs.latency.p99() < base.latency.p99()


def test_rfs_steers_processing_to_buddy_cores():
    machine, server, _gen = run_tcp_rr(rfs=True, connections=6,
                                       duration=20_000)
    # after warm-up, flows are processed on the consuming thread's buddy:
    # served counts concentrate where the connections' threads live
    served = [q.served for q in machine.netstack.softirq]
    assert sum(served) > 0


def test_locality_penalty_charged_only_when_remote():
    config = with_costs(set_a(), remote_softirq_us=5.0)
    machine = Machine(config, seed=43)
    app = machine.register_app("srv", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 2)
    request = Request(1, GET, 10.0)
    local = tcp_packet()
    local.softirq_core = server.threads[0].home_core
    remote = tcp_packet()
    remote.softirq_core = server.threads[0].home_core + 1
    base = server.request_cost(request, local, 0)
    penalized = server.request_cost(request, remote, 0)
    assert penalized == pytest.approx(base + 5.0)


def test_no_penalty_when_disabled():
    machine = Machine(set_a(), seed=43)  # remote_softirq_us = 0
    app = machine.register_app("srv", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 2)
    request = Request(1, GET, 10.0)
    remote = tcp_packet()
    remote.softirq_core = 1
    assert server.request_cost(request, remote, 0) == pytest.approx(12.0)


def test_tcp_rr_closed_loop_conserves_inflight():
    _m, _s, gen = run_tcp_rr(rfs=False, connections=16, duration=20_000)
    assert gen.in_flight == 0  # fully drained
    assert gen.transactions > 0


def test_tcp_rr_generator_starts_once():
    # A second start() put a second request in flight on every
    # connection, doubling the closed loop's concurrency.
    machine = Machine(set_a(), seed=42)
    gen = TcpRRGenerator(machine, 5201, num_connections=4,
                         duration_us=1_000).start()
    with pytest.raises(RuntimeError):
        gen.start()
    assert gen.in_flight == 4
