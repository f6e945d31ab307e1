"""NIC model: RX queues, RSS steering, optional on-NIC (offloaded) policies.

The XDP Offload hook site (``classifier``) follows the same duck-typed
protocol as the kernel hook sites (see :mod:`repro.kernel.netstack`): when a
Syrup program is offloaded, it picks the RX queue; otherwise RSS does.  A
smartNIC runs the policy at line rate, so no host CPU time is charged — the
price is paid elsewhere: userspace access to NIC-resident maps is ~25x
slower (Table 3), modeled in :mod:`repro.core.maps`.
"""

from repro.net.rss import rss_queue

__all__ = ["Nic", "NicDropReason"]


class NicDropReason:
    OFFLOAD_DROP = "offload_drop"
    NO_HANDLER = "no_handler"
    QDISC_SHED = "qdisc_shed"


class Nic:
    def __init__(self, engine, spec, costs, salt=0, probe=None):
        self.engine = engine
        self.spec = spec
        self.costs = costs
        self.salt = salt
        #: XDP Offload hook site (None, or requires spec.supports_offload).
        self.classifier = None
        #: Injected offload-engine failure (repro.faults): while True the
        #: classifier is bypassed and packets take RSS + the host path.
        self.offload_down = False
        #: Delivery callback: fn(queue_index, packet); normally
        #: NetStack.deliver_from_nic.
        self.deliver = None
        #: Instrumentation seam (repro.obs.probe), None when no telemetry
        #: tier listens: NIC arrival is the span head-sampling point;
        #: arrival -> IRQ delivery is the NIC wait.
        self.probe = probe
        #: Packets accepted but not yet IRQ-delivered (queue occupancy,
        #: sampled by the flight recorder's queue-state probe).
        self.in_flight = 0
        self.rx_packets = 0
        self.drops = {
            NicDropReason.OFFLOAD_DROP: 0,
            NicDropReason.NO_HANDLER: 0,
            NicDropReason.QDISC_SHED: 0,
        }
        #: Per-RX-queue queueing disciplines (repro.qdisc), attached by
        #: syrupd.deploy_qdisc(layer="nic_rx").  With a qdisc on a queue
        #: each IRQ delivers the *minimum-rank* buffered packet instead of
        #: the FIFO head; a PASS-everywhere discipline reproduces FIFO
        #: delivery exactly.
        self.rx_qdiscs = {}

    def attach_classifier(self, hook_site):
        if not self.spec.supports_offload:
            raise ValueError(
                f"NIC {self.spec.model!r} does not support XDP offload"
            )
        self.classifier = hook_site

    def attach_qdisc(self, queue_index, qdisc):
        """Attach a queueing discipline to one RX queue (syrupd only)."""
        if not 0 <= queue_index < self.spec.num_queues:
            raise ValueError(
                f"RX queue {queue_index} out of range for "
                f"{self.spec.num_queues}-queue NIC"
            )
        qdisc.target = f"rxq:{queue_index}"
        self.rx_qdiscs[queue_index] = qdisc
        return qdisc

    def detach_qdisc(self, queue_index):
        """Detach a queue's discipline.  Buffered packets are *not*
        stranded: each accepted packet already scheduled an IRQ drain that
        captured the discipline object, so the queue keeps draining."""
        return self.rx_qdiscs.pop(queue_index, None)

    def receive(self, packet):
        """A packet arrives from the wire."""
        self.rx_packets += 1
        if self.probe is not None:
            self.probe.nic_arrival(packet)
        if self.deliver is None:
            self.drops[NicDropReason.NO_HANDLER] += 1
            if self.probe is not None:
                self.probe.drop(packet, NicDropReason.NO_HANDLER)
            return
        queue = None
        if self.classifier is not None and not self.offload_down:
            action, target = self.classifier.decide(packet)
            if action == "drop":
                self.drops[NicDropReason.OFFLOAD_DROP] += 1
                if self.probe is not None:
                    self.probe.drop(packet, NicDropReason.OFFLOAD_DROP)
                return
            if action == "target":
                queue = target % self.spec.num_queues
        if queue is None:
            queue = rss_queue(packet.flow, self.spec.num_queues, self.salt)
        packet.rx_queue = queue
        delay = self.spec.rx_process_us + self.costs.irq_delay_us
        qdisc = self.rx_qdiscs.get(queue)
        if qdisc is not None:
            result = qdisc.offer(packet)
            if not result.accepted:
                self.drops[NicDropReason.QDISC_SHED] += 1
                if self.probe is not None:
                    self.probe.drop(packet, NicDropReason.QDISC_SHED)
                return
            if self.probe is not None:
                self.probe.qdisc_enqueued(
                    packet, qdisc.layer, result.rank, qdisc.backend_name
                )
            self.in_flight += 1
            self.engine.post(delay, self._irq_drain, queue, qdisc)
            return
        self.in_flight += 1
        self.engine.post(delay, self._irq_deliver, queue, packet)

    def _irq_deliver(self, queue, packet):
        """IRQ delivery into the kernel: occupancy drops, nic_queue ends."""
        self.in_flight -= 1
        if self.probe is not None:
            self.probe.nic_delivered(packet, queue)
        self.deliver(queue, packet)

    def _irq_drain(self, queue, qdisc):
        """IRQ delivery under a discipline: each accepted packet schedules
        one drain, and each drain delivers the queue's minimum-rank
        buffered packet — FIFO timing, programmable order."""
        self.in_flight -= 1
        packet = qdisc.take()
        if packet is None:
            return  # an eviction consumed this drain's element
        probe = self.probe
        if probe is not None:
            probe.qdisc_dequeued(packet)
            probe.nic_delivered(packet, queue)
        self.deliver(queue, packet)

    def __repr__(self):
        return f"<Nic {self.spec.model} queues={self.spec.num_queues}>"
