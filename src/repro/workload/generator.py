"""Open-loop load generation (mutilate-style, paper §5.1.2).

Arrivals are Poisson at the configured rate; each request is sent over a
flow drawn uniformly from a small pool of 5-tuples (the paper uses ~50 —
few enough that hash-based steering goes wrong, which is the point of
Figure 2).  Latency is measured client-side: from send to response receipt,
including both wire traversals.

Neither wire traversal is an engine event of its own.  A request is sent
by one event at its NIC arrival, ``send_at + wire_us``: it draws, stamps
``send_at`` everywhere a send time is read, posts the next send and hands
the packet to the NIC inline.  Only one send is ever pending, so its time
lives in one slot (``_send_at``) rather than in the event.  A response is
booked at delivery, ``completed_at = now + wire_us``, with no event, when
nothing can observe the receipt's clock: no ``on_latency`` callback (it
feeds windows that controllers read at their ticks) and a receipt inside
the send window, where the send chain always holds an event at or after
``duration_us``, so an inline receipt never ends the run.  Otherwise the
receipt is posted, as ``_client_receive``.  Every simulated output is what
one event per leg would give; only the engine's event count is lower.
"""

from math import inf, log, nextafter

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
        #: the pending send's time (None until started)
        self._send_at = None
        #: sends at or after this time are not made, and receipts before
        #: it are booked inline: duration_us, lowered by stop()
        self._until = duration_us
        #: the latest receipt time booked inline
        self._booked_to = -inf
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
        """Begin generating; returns self for chaining.

        A generator starts once: a second arrival chain would double the
        offered load and share the one pending-send slot, so it raises.
        """
        if self._send_at is not None:
            raise RuntimeError("generator already started")
        engine = self.engine
        self._send_at = send_at = engine.now + self._gap_us()
        if send_at < self._until:
            engine.post_at(send_at + self.machine.costs.wire_us, self._send)
        else:
            engine.post_at(send_at, _idle)
        return self

    def stop(self):
        """Make no send whose send time is after now.

        A send at or before now has happened, even one whose NIC arrival
        (its event, ``wire_us`` after the send time) is still ahead: it
        arrives.  A pending send past now is dropped when its event fires,
        at that NIC arrival.  Every later receipt is an event, and a
        receipt already booked inline past now is held on the clock by
        one empty event, so the run ends where it would with every
        receipt an event.
        """
        engine = self.engine
        now = engine.now
        # send_at >= nextafter(now, inf) exactly when send_at > now
        self._until = min(self._until, nextafter(now, inf))
        if self._booked_to > now:
            engine.post_at(self._booked_to, _idle)
        self._booked_to = -inf

    # ------------------------------------------------------------------
    def _send(self):
        """Send the request in the slot at its NIC arrival, and post the
        next send, all in this frame.

        Fires at ``send_at + wire_us``; everything that reads a send time
        reads ``send_at``.  The draws are ``random``'s own expressions, in
        the same order — service, key, flow, gap — so the stream is
        bit-identical to ``mix.sample``, ``randrange`` twice and
        ``expovariate(1.0)``.  The next send time is ``send_at + gap``;
        when it is at or after the cutoff nothing more is sent, and an
        empty event at that time (if it lies ahead) ends the chain."""
        send_at = self._send_at
        until = self._until
        if send_at >= until:
            return  # stop()ped before this send time
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
        request.sent_at = send_at
        # rng.randrange(len(flows)), likewise
        index = getrandbits(self._flow_bits)
        while index >= self._num_flows:
            index = getrandbits(self._flow_bits)
        # No payload: the packet builds the request's standard header if
        # and when a policy reads it.
        packet = Packet(self.flows[index], None, send_at, request)
        self.sent.add(send_at, rtype)
        # _gap_us(): rng.expovariate(1.0) * mean gap, likewise
        gap = -log(1.0 - rng.random()) / 1.0 * self._mean_gap_us
        if self.envelope is not None:
            gap /= max(self.envelope.rate_factor(send_at), 1e-9)
        machine = self.machine
        engine = self.engine
        self._send_at = send_at = send_at + gap
        if send_at < until:
            # one-way wire + client NIC cost before the server NIC sees it
            engine.post_at(send_at + machine.costs.wire_us, self._send)
        elif send_at > engine.now:
            engine.post_at(send_at, _idle)
        machine.nic.receive(packet)

    # ------------------------------------------------------------------
    # Server-side completion sink: the client receipt, one wire later.
    # ------------------------------------------------------------------
    def deliver_response(self, request):
        engine = self.engine
        wire_us = self.machine.costs.wire_us
        received_at = engine.now + wire_us
        if received_at < self._until and self.on_latency is None:
            request.completed_at = received_at
            self.latency.record(request.sent_at,
                                received_at - request.sent_at,
                                tag=request.rtype)
            self._booked_to = received_at
        else:
            engine.post(wire_us, self._client_receive, request)

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


def _idle():
    """The empty event that ends a send chain or holds a booked receipt's
    time on the clock."""
