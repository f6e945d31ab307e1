"""A netperf TCP_RR-style closed-loop generator.

Each of ``num_connections`` persistent TCP connections ping-pongs one tiny
request at a time: send, wait for the response, immediately send the next.
The metric is transactions/second — throughput here is latency-bound, which
is exactly why RFS-style locality moves it so much (paper §2.1).
"""

from repro.net.packet import FiveTuple, Packet, build_payload
from repro.stats.latency import LatencyRecorder
from repro.workload.requests import GET, Request

__all__ = ["TcpRRGenerator"]


class TcpRRGenerator:
    def __init__(
        self,
        machine,
        port,
        num_connections,
        duration_us,
        warmup_us=0.0,
        service_range=(0.8, 1.2),
        stream="tcp-rr",
    ):
        self.machine = machine
        self.engine = machine.engine
        self.port = port
        self.duration_us = duration_us
        self.warmup_us = warmup_us
        self.service_range = service_range
        self.rng = machine.streams.get(f"{stream}/service")
        flow_rng = machine.streams.get(f"{stream}/flows")
        self.flows = [
            FiveTuple(
                src_ip=0x0A000100 | i,
                src_port=flow_rng.randrange(32768, 61000),
                dst_ip=0x0A000001,
                dst_port=port,
                proto=6,  # TCP
            )
            for i in range(num_connections)
        ]
        self.latency = LatencyRecorder(warmup_until=warmup_us)
        self.transactions = 0
        self.in_flight = 0
        self._next_rid = 0
        self._started = False

    # ------------------------------------------------------------------
    def start(self):
        """Open every connection's ping-pong; a second start would put a
        second request in flight on each, so it raises."""
        if self._started:
            raise RuntimeError("generator already started")
        self._started = True
        for conn in range(len(self.flows)):
            self._send(conn)
        return self

    def _send(self, conn):
        now = self.engine.now
        self._next_rid += 1
        low, high = self.service_range
        request = Request(
            self._next_rid, GET, self.rng.uniform(low, high), key=conn
        )
        request.sent_at = now
        payload = build_payload(GET, 0, 0, self._next_rid)
        packet = Packet(self.flows[conn], payload, sent_at=now,
                        request=request)
        self.in_flight += 1
        self.engine.post(
            self.machine.costs.wire_us, self.machine.nic.receive, packet
        )

    # ------------------------------------------------------------------
    def deliver_response(self, request):
        self.engine.post(
            self.machine.costs.wire_us, self._client_receive, request
        )

    def _client_receive(self, request):
        now = self.engine.now
        self.in_flight -= 1
        request.completed_at = now
        if request.sent_at >= self.warmup_us:
            self.transactions += 1
            self.latency.record(request.sent_at, now - request.sent_at)
        if now < self.duration_us:
            self._send(request.key)  # ping-pong: next transaction

    # ------------------------------------------------------------------
    def transactions_per_sec(self, window_end_us=None):
        end = window_end_us if window_end_us is not None else self.duration_us
        window = end - self.warmup_us
        if window <= 0:
            return 0.0
        return self.transactions / (window / 1e6)
