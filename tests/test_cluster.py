"""Tests for the rack-scale extension's micro tier (§6.1): full machines
behind the fleet's ``TorSwitch``, steered by ``repro.cluster.steering``."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from test_net import u16, u32

from repro import Hook
from repro.cluster import (
    Cluster,
    PowerOfKSteering,
    RssSteering,
    SwitchProgramSteering,
    TorSwitch,
)
from repro.ebpf.compiler import compile_policy
from repro.ebpf.program import load_program
from repro.net.packet import FiveTuple, Packet, build_payload
from repro.net.rss import rss_hash
from repro.policies.builtin import ROUND_ROBIN
from repro.workload.mixes import GET_ONLY, GET_SCAN_995_005
from repro.workload.requests import GET, Request


def make_packet(port=8080, src_port=40000, rid=1):
    flow = FiveTuple(0x0A000002, src_port, 0x0A0000FF, port, 17)
    request = Request(rid, GET, 10.0)
    return Packet(flow, build_payload(GET, 0, 0, rid), request=request)


def program(source, **constants):
    return SwitchProgramSteering(
        load_program(compile_policy(source, constants=constants)))


# ----------------------------------------------------------------------
# The micro tier's own policies before it ran on repro.cluster.steering,
# kept verbatim as references for the policies that replaced them.
# ----------------------------------------------------------------------
class HashFlowPolicy:
    """L4-load-balancer default: per-flow hash (flow affinity)."""

    def __init__(self, salt=0x70F):
        self.salt = salt

    def pick(self, packet, switch):
        return rss_hash(packet.flow, self.salt) % switch.num_servers


class LeastOutstandingPolicy:
    """RackSched-style: sample ``d`` servers, pick the least loaded."""

    def __init__(self, rng, d=2):
        self.rng = rng
        self.d = d

    def pick(self, packet, switch):
        n = switch.num_servers
        candidates = {self.rng.randrange(n) for _ in range(self.d)}
        return min(candidates, key=lambda i: switch.outstanding[i])


class _OldSwitch:
    """What the reference policies read off the deleted switch."""

    def __init__(self, outstanding):
        self.num_servers = len(outstanding)
        self.outstanding = outstanding


# Why at most 8 servers: LeastOutstandingPolicy took ``min`` over a
# ``set`` of sampled indices, so among equally loaded candidates it
# returned the first in hash-table order.  Small ints hash to themselves
# and a set of at most 4 members has 8 slots, so for indices 0..7 that
# order is ascending — the lowest tied index wins, which is
# PowerOfKSteering's tie-break.  From n = 9, index 8 sits in slot 0 ahead
# of index 1 and the two differ (n = 9, k = 2: 910 of 15,000 picks over
# loads drawn from 0..2).  No caller ever ran more than 4 servers.
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4),
       loads=st.lists(st.lists(st.integers(0, 3), min_size=8, max_size=8),
                      min_size=1, max_size=12),
       n=st.integers(1, 8))
def test_power_of_k_is_least_outstanding_up_to_eight_servers(seed, k, loads,
                                                             n):
    switch = TorSwitch(n)
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    new = PowerOfKSteering(new_rng, k=k)
    old = LeastOutstandingPolicy(old_rng, d=k)
    packet = make_packet()
    for row in loads:
        switch.load_view = row[:n]
        assert new.pick(packet, switch) == old.pick(packet, _OldSwitch(row[:n]))
    assert new_rng.getstate() == old_rng.getstate()     # the same draws


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 16), src_ip=u32, src_port=u16, dst_ip=u32,
       dst_port=u16, proto=st.sampled_from([6, 17]))
def test_rss_steering_is_the_hash_flow_policy(n, src_ip, src_port, dst_ip,
                                              dst_port, proto):
    flow = FiveTuple(src_ip, src_port, dst_ip, dst_port, proto)
    packet = Packet(flow, None, request=Request(1, GET, 1.0))
    assert RssSteering().pick(packet, TorSwitch(n)) \
        == HashFlowPolicy().pick(packet, _OldSwitch([0] * n))


# ----------------------------------------------------------------------
# The switch: TorSwitch.pick and Cluster.receive
# ----------------------------------------------------------------------
def test_default_hash_has_flow_affinity():
    cluster = Cluster()
    for rid in range(5):
        cluster.receive(make_packet(rid=rid))
    assert max(cluster.switch.forwarded) == 5  # same flow, same server
    assert sum(cluster.switch.load_view) == 5


def test_least_outstanding_avoids_loaded_servers():
    switch = TorSwitch(4)
    switch.install(8080, PowerOfKSteering(random.Random(1), k=4))
    switch.load_view = [10, 10, 0, 10]
    assert switch.pick(make_packet()) == 2


def test_generator_starts_once():
    # A second start() began a second arrival chain: 75 requests sent
    # became 174.
    cluster = Cluster(num_servers=2, seed=1)
    gen = cluster.drive(50_000, GET_ONLY, duration_us=2_000.0).start()
    with pytest.raises(RuntimeError):
        gen.start()
    cluster.run()
    assert gen.sent.total() == 75


def test_outstanding_tracks_responses():
    """The switch's load view is exact: one up per request forwarded, one
    down per response passing back through it."""
    cluster = Cluster()
    gen = cluster.drive(1_000, GET_ONLY, duration_us=0.0)  # sinks only
    cluster.receive(make_packet())
    assert sum(cluster.switch.load_view) == 1
    cluster.run()
    assert cluster.switch.load_view == [0, 0, 0, 0]
    assert gen.latency.count == 1


def test_per_port_rules_isolate_tenants():
    cluster = Cluster()
    cluster.install_policy(RssSteering(), owner="alice")
    with pytest.raises(PermissionError):
        cluster.install_policy(RssSteering(), owner="bob")
    drop = program("def schedule(pkt):\n    return DROP\n")
    cluster.install_policy(drop, port=9090, owner="bob")  # fine
    cluster.receive(make_packet(port=8080))
    cluster.receive(make_packet(port=9090))
    assert (sum(cluster.switch.forwarded), cluster.switch.dropped) == (1, 1)


def test_verified_program_runs_at_switch():
    """Portability across the whole stack: the same RR source that picks
    sockets picks servers."""
    cluster = Cluster()
    cluster.install_policy(program(ROUND_ROBIN, NUM_THREADS=4))
    for rid in range(8):
        cluster.receive(make_packet(rid=rid))
    assert cluster.switch.forwarded == [2, 2, 2, 2]


def test_program_policy_drop():
    cluster = Cluster()
    cluster.install_policy(program("def schedule(pkt):\n    return DROP\n"))
    cluster.receive(make_packet())
    assert cluster.switch.dropped == 1
    assert cluster.switch.forwarded == [0, 0, 0, 0]
    assert cluster.switch.load_view == [0, 0, 0, 0]


def test_program_policy_pass_falls_to_default():
    cluster = Cluster()
    cluster.install_policy(program("def schedule(pkt):\n    return PASS\n"))
    packet = make_packet()
    default = RssSteering().pick(packet, cluster.switch)
    cluster.receive(packet)
    assert cluster.switch.forwarded[default] == 1
    assert sum(cluster.switch.forwarded) == 1


# ----------------------------------------------------------------------
# Full-rack integration
# ----------------------------------------------------------------------
def run_rack(policy_factory, rate=600_000, duration=60_000):
    cluster = Cluster(num_servers=4, seed=5)
    cluster.install_policy(policy_factory(cluster))
    gen = cluster.drive(rate, GET_ONLY, duration_us=duration,
                        warmup_us=duration / 4).start()
    cluster.run()
    return cluster, gen


def test_rack_serves_load_end_to_end():
    cluster, gen = run_rack(lambda c: program(ROUND_ROBIN, NUM_THREADS=4))
    assert gen.drop_fraction() == 0.0
    assert sum(gen.per_server_completed) == gen.latency.count
    # all four servers did real work
    assert all(n > 0 for n in gen.per_server_completed)
    # rack latency includes the extra switch hop both ways
    assert gen.latency.p50() > 4 * cluster.wire_us


def test_rack_outstanding_drains():
    cluster, gen = run_rack(
        lambda c: PowerOfKSteering(c.streams.get("sw"), k=2)
    )
    assert all(o == 0 for o in cluster.switch.load_view)


def test_least_outstanding_beats_hash_on_variable_service():
    results = {}
    for name, factory in (
        ("hash", lambda c: RssSteering()),
        ("p2c", lambda c: PowerOfKSteering(c.streams.get("sw"), k=2)),
    ):
        cluster = Cluster(num_servers=4, seed=6)
        cluster.install_policy(factory(cluster))
        gen = cluster.drive(800_000, GET_SCAN_995_005, duration_us=80_000,
                            warmup_us=20_000).start()
        cluster.run()
        results[name] = gen.latency.p99()
    assert results["p2c"] < results["hash"] / 1.5


def test_host_policy_composes_with_rack_steering():
    """§6.1's full picture: the switch picks the server, each server's own
    deployed policy picks the socket — two Syrup layers on one request."""
    cluster = Cluster(num_servers=4, seed=2)
    cluster.install_policy(PowerOfKSteering(cluster.streams.get("sw"), k=2))
    deployed = [
        server.app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                                 constants={"NUM_THREADS": 6})
        for server in cluster.servers
    ]
    gen = cluster.drive(300_000, GET_ONLY, duration_us=20_000).start()
    cluster.run()
    for machine, policy in zip(cluster.machines, deployed):
        hook = machine.netstack.socket_select_hook
        # every datagram this server delivered, its own hook steered
        assert policy.program.invocations == machine.netstack.delivered > 0
        assert (hook.pass_decisions, hook.drop_decisions) == (0, 0)
    assert gen.sent.total() == gen.latency.count > 0
    assert sum(cluster.switch.forwarded) == gen.sent.total()
    assert cluster.switch.load_view == [0, 0, 0, 0]
