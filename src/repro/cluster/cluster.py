"""A rack: one programmable switch in front of N co-simulated servers.

Every machine shares one discrete-event engine, so cross-machine timing is
exact.  Each server runs a RocksDB-like service; within each server, any
end-host Syrup policy can be deployed as usual
(``cluster.servers[i].app.deploy_policy``) — rack scheduling composes
with host scheduling, the full §6.1 picture.

The switch is the fleet tier's :class:`~repro.cluster.fleet.TorSwitch`
running the :mod:`repro.cluster.steering` policies.  Every response
passes back through it, so here its ``load_view`` is exact (the
information RackSched piggybacks), where the fleet's is a stale replica.
"""

from repro.config import set_a
from repro.machine import Machine
from repro.apps.rocksdb import RocksDbServer
from repro.cluster.fleet import DEFAULT_FORWARD_US, TorSwitch
from repro.cluster.steering import RssSteering
from repro.net.packet import FiveTuple, Packet
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.stats.latency import LatencyRecorder
from repro.stats.meters import Counter
from repro.workload.requests import Request

__all__ = ["Cluster", "ClusterGenerator"]

PORT = 8080
NUM_THREADS = 6
NUM_FLOWS = 256
STREAM = "rack-client"


class Cluster:
    def __init__(self, num_servers=4, seed=0):
        self.engine = Engine()
        self.streams = RngStreams(seed)
        self.machines = []
        self.servers = []
        for i in range(num_servers):
            machine = Machine(set_a(), seed=seed * 131 + i,
                              engine=self.engine)
            app = machine.register_app(f"rocksdb-{i}", ports=[PORT])
            self.machines.append(machine)
            self.servers.append(RocksDbServer(machine, app, PORT, NUM_THREADS))
        self.forward_us = DEFAULT_FORWARD_US
        self.wire_us = self.machines[0].costs.wire_us
        self.switch = TorSwitch(num_servers, default=RssSteering())

    def install_policy(self, policy, port=PORT, owner=None):
        self.switch.install(port, policy, owner=owner)

    def receive(self, packet):
        """A request arrives at the rack; steer it to a server."""
        switch = self.switch
        index = switch.pick(packet)
        if index is None:
            switch.dropped += 1
            return
        switch.load_view[index] += 1
        switch.forwarded[index] += 1
        self.engine.post(self.forward_us + self.wire_us,
                         self.machines[index].nic.receive, packet)

    def drive(self, rate_rps, mix, duration_us, warmup_us=0.0):
        gen = ClusterGenerator(self, rate_rps, mix, duration_us,
                               warmup_us=warmup_us)
        for i, server in enumerate(self.servers):
            server.response_sink = gen.make_sink(i)
        return gen

    def run(self, until=None):
        self.engine.run(until=until)


class ClusterGenerator:
    """Open-loop load against the rack, measured end to end."""

    def __init__(self, cluster, rate_rps, mix, duration_us, warmup_us=0.0):
        self.cluster = cluster
        self.engine = cluster.engine
        self.mix = mix
        self.duration_us = duration_us
        self.warmup_us = warmup_us
        self.rng = cluster.streams.get(f"{STREAM}/arrivals")
        self.service_rng = cluster.streams.get(f"{STREAM}/service")
        flow_rng = cluster.streams.get(f"{STREAM}/flows")
        self.flows = [
            FiveTuple(
                src_ip=0x0A010000 | flow_rng.getrandbits(14),
                src_port=flow_rng.randrange(32768, 61000),
                dst_ip=0x0A0000FF,
                dst_port=PORT,
                proto=17,
            )
            for _ in range(NUM_FLOWS)
        ]
        self.latency = LatencyRecorder(warmup_until=warmup_us)
        self.sent = Counter(warmup_until=warmup_us)
        self.per_server_completed = [0] * len(cluster.machines)
        self._mean_gap_us = 1e6 / rate_rps
        self._next_rid = 0
        self._started = False

    def start(self):
        """Begin the arrival chain; a second chain would double the
        offered load, so a second start raises."""
        if self._started:
            raise RuntimeError("generator already started")
        self._started = True
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
        self.engine.post(self.cluster.wire_us, self.cluster.receive, packet)

    # ------------------------------------------------------------------
    def make_sink(self, server_index):
        cluster = self.cluster
        delay = cluster.forward_us + 2 * cluster.wire_us

        def sink(request):
            # server -> switch (one fewer outstanding there) -> client
            cluster.switch.load_view[server_index] -= 1
            self.engine.post(delay, self._client_receive, request,
                             server_index)
        return sink

    def _client_receive(self, request, server_index):
        now = self.engine.now
        request.completed_at = now
        if request.sent_at >= self.warmup_us:
            self.per_server_completed[server_index] += 1
        self.latency.record(request.sent_at, now - request.sent_at,
                            tag=request.rtype)

    def drop_fraction(self):
        sent = self.sent.total()
        if not sent:
            return 0.0
        return max(0.0, 1.0 - self.latency.count / sent)
