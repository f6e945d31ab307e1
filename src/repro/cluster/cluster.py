"""A rack: one programmable switch in front of N co-simulated servers.

Every machine shares one discrete-event engine, so cross-machine timing is
exact.  Each server runs a RocksDB-like service; within each server, any
end-host Syrup policy can be deployed as usual — rack scheduling composes
with host scheduling, the full §6.1 picture.
"""

from repro.config import set_a
from repro.machine import Machine
from repro.apps.rocksdb import RocksDbServer
from repro.cluster.switch import ProgrammableSwitch
from repro.net.packet import FiveTuple, Packet
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.stats.latency import LatencyRecorder
from repro.stats.meters import Counter
from repro.workload.requests import Request

__all__ = ["Cluster", "ClusterGenerator"]


class Cluster:
    def __init__(
        self,
        num_servers=4,
        port=8080,
        num_threads=6,
        seed=0,
        config_factory=set_a,
        host_policy=None,
        mark_scans=False,
    ):
        self.engine = Engine()
        self.streams = RngStreams(seed)
        self.port = port
        self.machines = []
        self.servers = []
        for i in range(num_servers):
            machine = Machine(config_factory(), seed=seed * 131 + i,
                              engine=self.engine)
            app = machine.register_app(f"rocksdb-{i}", ports=[port])
            server = RocksDbServer(machine, app, port, num_threads,
                                   mark_scans=mark_scans)
            if host_policy is not None:
                source, hook, constants = host_policy
                app.deploy_policy(source, hook, constants=constants)
            self.machines.append(machine)
            self.servers.append(server)
        costs = self.machines[0].costs
        self.switch = ProgrammableSwitch(
            self.engine, self.machines, wire_us=costs.wire_us
        )

    def install_policy(self, policy, port=None, owner=None):
        self.switch.install(port if port is not None else self.port,
                            policy, owner=owner)

    def drive(self, rate_rps, mix, duration_us, warmup_us=0.0,
              num_flows=256, stream="rack-client"):
        gen = ClusterGenerator(self, rate_rps, mix, duration_us,
                               warmup_us=warmup_us, num_flows=num_flows,
                               stream=stream)
        for i, server in enumerate(self.servers):
            server.response_sink = gen.make_sink(i)
        return gen

    def run(self, until=None):
        self.engine.run(until=until)


class ClusterGenerator:
    """Open-loop load against the rack, measured end to end."""

    def __init__(self, cluster, rate_rps, mix, duration_us, warmup_us=0.0,
                 num_flows=256, stream="rack-client"):
        self.cluster = cluster
        self.engine = cluster.engine
        self.mix = mix
        self.rate_rps = rate_rps
        self.duration_us = duration_us
        self.warmup_us = warmup_us
        self.rng = cluster.streams.get(f"{stream}/arrivals")
        self.service_rng = cluster.streams.get(f"{stream}/service")
        flow_rng = cluster.streams.get(f"{stream}/flows")
        self.flows = [
            FiveTuple(
                src_ip=0x0A010000 | flow_rng.getrandbits(14),
                src_port=flow_rng.randrange(32768, 61000),
                dst_ip=0x0A0000FF,
                dst_port=cluster.port,
                proto=17,
            )
            for _ in range(num_flows)
        ]
        self.latency = LatencyRecorder(warmup_until=warmup_us)
        self.sent = Counter(warmup_until=warmup_us)
        self.completed = Counter(warmup_until=warmup_us)
        self.per_server_completed = [0] * len(cluster.machines)
        self._mean_gap_us = 1e6 / rate_rps
        self._next_rid = 0

    def start(self):
        self.engine.post(
            self.rng.expovariate(1.0) * self._mean_gap_us, self._arrival
        )
        return self

    def _arrival(self):
        now = self.engine.now
        if now >= self.duration_us:
            return
        self._send_one(now)
        self.engine.post(
            self.rng.expovariate(1.0) * self._mean_gap_us, self._arrival
        )

    def _send_one(self, now):
        self._next_rid += 1
        rtype, service_us = self.mix.sample(self.service_rng)
        key = self.rng.randrange(10000)
        # The rack's wire format carries the key itself in the key-hash
        # field; the packet builds those bytes from the request on demand.
        request = Request(self._next_rid, rtype, service_us,
                          key=key, key_hash=key)
        request.sent_at = now
        flow = self.flows[self.rng.randrange(len(self.flows))]
        packet = Packet(flow, None, now, request)
        self.sent.add(now, rtype)
        # client -> switch wire
        wire = self.cluster.switch.wire_us
        self.engine.post(wire, self.cluster.switch.receive, packet)

    # ------------------------------------------------------------------
    def make_sink(self, server_index):
        def sink(request):
            # server -> switch -> client
            self.cluster.switch.response_passed(request)
            self.engine.post(
                self.cluster.switch.forward_us + 2 * self.cluster.switch.wire_us,
                self._client_receive, request, server_index,
            )
        return sink

    def _client_receive(self, request, server_index):
        now = self.engine.now
        request.completed_at = now
        self.completed.add(request.sent_at, request.rtype)
        if request.sent_at >= self.warmup_us:
            self.per_server_completed[server_index] += 1
        self.latency.record(request.sent_at, now - request.sent_at,
                            tag=request.rtype)

    def drop_fraction(self):
        sent = self.sent.total()
        if not sent:
            return 0.0
        return max(0.0, 1.0 - self.completed.total() / sent)
