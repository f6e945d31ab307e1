"""Open-loop load generation (mutilate-style, paper §5.1.2).

Arrivals are Poisson at the configured rate; each request is sent over a
flow drawn uniformly from a small pool of 5-tuples (the paper uses ~50 —
few enough that hash-based steering goes wrong, which is the point of
Figure 2).  Latency is measured client-side: from send to response receipt,
including both wire traversals.
"""

from math import log

from repro.net.packet import FiveTuple, Packet
from repro.stats.latency import LatencyRecorder
from repro.stats.meters import Counter
from repro.workload.requests import Request

__all__ = ["OpenLoopGenerator"]


class OpenLoopGenerator:
    """Generates load against one machine/port and records client latency.

    Args:
        machine: the target :class:`~repro.machine.Machine`.
        port: destination UDP port.
        rate_rps: offered load, requests/second.
        mix: a :class:`~repro.workload.mixes.RequestMix`.
        duration_us: stop generating after this much simulated time.
        warmup_us: samples before this time are discarded.
        num_flows: size of the client 5-tuple pool.
        user_id: stamped into every request (QoS experiments); doubles
            as the numeric tenant id policies read from the payload.
        key_space: MICA-style key range; key_hash is derived per request.
        stream: RNG stream name suffix (several generators can coexist).
        tenant: tenant name stamped on every request for per-tenant
            accounting (repro.obs.accounting); None (default) leaves
            requests tenant-less and the accountant untouched.
        envelope: optional :class:`~repro.workload.weather.Envelope`
            modulating the offered rate over time (traffic weather).
            Gaps are divided by the envelope's factor at the interval
            start — no extra RNG draws, so ``None`` (the default) is
            bit-identical to builds without envelopes.
    """

    def __init__(
        self,
        machine,
        port,
        rate_rps,
        mix,
        duration_us,
        warmup_us=0.0,
        num_flows=50,
        user_id=0,
        key_space=10000,
        stream="client",
        tenant=None,
        envelope=None,
    ):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if key_space < 1 or num_flows < 1:
            raise ValueError("key_space and num_flows must be positive")
        self.machine = machine
        self.engine = machine.engine
        self.port = port
        self.mix = mix
        self.duration_us = duration_us
        self.warmup_us = warmup_us
        self.user_id = user_id
        self.key_space = key_space
        self.tenant = tenant
        self.envelope = envelope
        self.rng = machine.streams.get(f"{stream}/arrivals")
        self.service_rng = machine.streams.get(f"{stream}/service")
        flow_rng = machine.streams.get(f"{stream}/flows")
        self.flows = [
            FiveTuple(
                src_ip=0x0A000000 | flow_rng.getrandbits(16),
                src_port=flow_rng.randrange(32768, 61000),
                dst_ip=0x0A000001,
                dst_port=port,
                proto=17,
            )
            for _ in range(num_flows)
        ]
        self.latency = LatencyRecorder(warmup_until=warmup_us)
        self.sent = Counter(warmup_until=warmup_us)
        self._next_rid = 0
        # randrange(n) draws getrandbits(n.bit_length()) until below n
        self._key_bits = key_space.bit_length()
        self._num_flows = num_flows
        self._flow_bits = num_flows.bit_length()
        self._mean_gap_us = 1e6 / rate_rps
        self._stopped = False
        #: Optional per-completion callback ``fn(request, latency_us)``
        #: fired at client receipt — the feed for SLO objectives and
        #: registry latency sketches (repro.obs.slo / repro.obs.sketch).
        #: None (the default) costs one attribute test and changes
        #: nothing.
        self.on_latency = None

    # ------------------------------------------------------------------
    def _gap_us(self):
        gap = self.rng.expovariate(1.0) * self._mean_gap_us
        if self.envelope is not None:
            gap /= max(self.envelope.rate_factor(self.engine.now), 1e-9)
        return gap

    def start(self):
        """Begin generating; returns self for chaining."""
        self.engine.post(self._gap_us(), self._arrival)
        return self

    def stop(self):
        self._stopped = True

    # ------------------------------------------------------------------
    def _arrival(self):
        """Send one request and draw the next gap, all in this frame.

        The draws are ``random``'s own expressions, in the same order —
        service, key, flow, gap — so the stream is bit-identical to
        ``mix.sample``, ``randrange`` twice and ``expovariate(1.0)``."""
        engine = self.engine
        now = engine.now
        if self._stopped or now >= self.duration_us:
            return
        rng = self.rng
        getrandbits = rng.getrandbits
        self._next_rid += 1
        rtype, service_us = self.mix.sample(self.service_rng)
        # rng.randrange(key_space): its rejection loop
        key = getrandbits(self._key_bits)
        while key >= self.key_space:
            key = getrandbits(self._key_bits)
        request = Request(
            self._next_rid, rtype, service_us,
            user_id=self.user_id, key=key,
            key_hash=(key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF,
            tenant=self.tenant,
        )
        request.sent_at = now
        # rng.randrange(len(flows)), likewise
        index = getrandbits(self._flow_bits)
        while index >= self._num_flows:
            index = getrandbits(self._flow_bits)
        # No payload: the packet builds the request's standard header if
        # and when a policy reads it.
        packet = Packet(self.flows[index], None, now, request)
        self.sent.add(now, rtype)
        # one-way wire + client NIC cost before the server NIC sees it
        machine = self.machine
        engine.post(machine.costs.wire_us, machine.nic.receive, packet)
        # _gap_us(): rng.expovariate(1.0) * mean gap, likewise
        gap = -log(1.0 - rng.random()) / 1.0 * self._mean_gap_us
        if self.envelope is not None:
            gap /= max(self.envelope.rate_factor(now), 1e-9)
        engine.post(gap, self._arrival)

    # ------------------------------------------------------------------
    # Server-side completion sink: schedule client receipt after the wire.
    # ------------------------------------------------------------------
    def deliver_response(self, request):
        self.engine.post(
            self.machine.costs.wire_us, self._client_receive, request
        )

    def _client_receive(self, request):
        now = self.engine.now
        request.completed_at = now
        self.latency.record(request.sent_at, now - request.sent_at,
                            tag=request.rtype)
        if self.on_latency is not None:
            self.on_latency(request, now - request.sent_at)

    # ------------------------------------------------------------------
    def sent_in_window(self):
        return self.sent.total()

    def completed_in_window(self):
        """Measured-window completions: one latency sample each."""
        return self.latency.count

    def drop_fraction(self):
        """Fraction of measured-window requests that never completed.

        Call only after the simulation has fully drained.
        """
        sent = self.sent.total()
        if sent == 0:
            return 0.0
        return max(0.0, 1.0 - self.latency.count / sent)

    def goodput_rps(self, window_end_us):
        window = window_end_us - self.warmup_us
        if window <= 0:
            return 0.0
        return self.latency.count / (window / 1e6)
