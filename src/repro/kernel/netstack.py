"""The kernel receive path: IRQ -> softirq -> protocol -> socket.

Hook sites (paper Figure 4) are duck-typed slots filled in by the Syrup
framework (:mod:`repro.core.hooks`); each exposes::

    decide(packet) -> (action, target)
    cost_us(packet) -> float        # policy execution time to charge

where ``action`` is one of ``"none"`` (no policy attached for this packet's
application), ``"pass"``, ``"drop"``, or ``"target"`` with a resolved
executor (an AF_XDP socket for XDP hooks, a softirq core index for CPU
Redirect, a socket index for Socket Select).

Path modeling notes:

- Each softirq core is a FIFO server with a bounded backlog standing in for
  the NIC ring; refused submissions are ring drops.
- The XDP path (generic or native) bypasses protocol processing and hands
  packets to AF_XDP sockets — cheaper per packet, and on non-zero-copy NICs
  it pays an extra copy (paper §5.4, Netronome).
- Socket Select runs at protocol-processing completion so policies observe
  fresh map state (the SCAN Avoid policy depends on this).
"""

from repro.kernel.cpu import FifoServer
from repro.kernel.sockets import SocketTable

__all__ = ["NetStack"]


class NetStack:
    def __init__(self, engine, config, probe=None):
        self.engine = engine
        self.config = config
        self.costs = config.costs
        self.socket_table = SocketTable()
        self.softirq = [
            FifoServer(engine, f"softirq-{i}", capacity=config.nic.ring_size)
            for i in range(config.num_softirq_cores)
        ]
        # Syrup hook sites (None = hook not provisioned).
        self.xdp_hook = None
        self.cpu_redirect_hook = None
        self.socket_select_hook = None
        # Plain AF_XDP: sockets bound directly to RX queues (no policy) —
        # how AF_XDP works without Syrup, used by the MICA baseline.
        self.afxdp_bindings = {}
        # Established TCP connections: flow -> accepted socket.  The Socket
        # Select hook runs once per connection, on the SYN (paper Fig. 4:
        # input "TCP Connection", executor "TCP Socket").
        self.tcp_connections = {}
        self.drops = {
            "ring_overflow": 0,
            "xdp_drop": 0,
            "select_drop": 0,
            "no_socket": 0,
            "socket_overflow": 0,
        }
        self.delivered = 0
        # Instrumentation seam (repro.obs.probe), None when no telemetry
        # tier listens; every call site tests it.  softirq_begin/end
        # bracket FIFO submission -> protocol completion, and every drop
        # counted in ``drops`` is reported once — except socket_overflow,
        # which the refusing socket reports itself (it alone knows
        # whether the packet overflowed or its rank function shed it).
        self.probe = probe

    # ------------------------------------------------------------------
    # RX path entry (called by the NIC at IRQ-delivery time)
    # ------------------------------------------------------------------
    def deliver_from_nic(self, queue_index, packet):
        costs = self.costs
        if self.xdp_hook is not None:
            action, target = self.xdp_hook.decide(packet)
            if action == "drop":
                self.drops["xdp_drop"] += 1
                if self.probe is not None:
                    self.probe.drop(packet, "xdp_drop")
                return
            if action == "target":
                # zero copy only in native (XDP_DRV) mode on a capable NIC
                zero_copy = (
                    getattr(self.xdp_hook, "hook", None) == "xdp_drv"
                    and self.config.nic.zero_copy
                )
                cost = (
                    costs.xdp_stage_us
                    + self.xdp_hook.cost_us(packet)
                    + (0.0 if zero_copy else self.config.nic.copy_cost_us)
                    + costs.afxdp_deliver_us
                )
                core_index = queue_index % len(self.softirq)
                server = self.softirq[core_index]
                if not server.submit(cost, self._deliver_af_xdp, target, packet):
                    self.drops["ring_overflow"] += 1
                    if self.probe is not None:
                        self.probe.drop(packet, "ring_overflow")
                elif self.probe is not None:
                    self.probe.softirq_begin(packet, core_index, len(server))
                return
            # "none" / "pass": fall through to the standard stack

        bound = self.afxdp_bindings.get(queue_index)
        if bound is not None:
            zero_copy = self.config.nic.zero_copy
            cost = (
                costs.xdp_stage_us
                + (0.0 if zero_copy else self.config.nic.copy_cost_us)
                + costs.afxdp_deliver_us
            )
            core_index = queue_index % len(self.softirq)
            server = self.softirq[core_index]
            if not server.submit(cost, self._deliver_af_xdp, bound, packet):
                self.drops["ring_overflow"] += 1
                if self.probe is not None:
                    self.probe.drop(packet, "ring_overflow")
            elif self.probe is not None:
                self.probe.softirq_begin(packet, core_index, len(server))
            return

        core_index = queue_index % len(self.softirq)
        extra = 0.0
        if self.cpu_redirect_hook is not None:
            action, target = self.cpu_redirect_hook.decide(packet)
            extra += self.cpu_redirect_hook.cost_us(packet)
            if action == "drop":
                self.drops["select_drop"] += 1
                if self.probe is not None:
                    self.probe.drop(packet, "select_drop")
                return
            if action == "target":
                core_index = target % len(self.softirq)
        if self.socket_select_hook is not None:
            # decision runs at completion; its execution time is charged here
            extra += self.socket_select_hook.cost_us(packet)
        cost = costs.softirq_us + extra + costs.socket_deliver_us
        packet.softirq_core = core_index
        server = self.softirq[core_index]
        if not server.submit(cost, self._protocol_done, packet):
            self.drops["ring_overflow"] += 1
            if self.probe is not None:
                self.probe.drop(packet, "ring_overflow")
        elif self.probe is not None:
            self.probe.softirq_begin(packet, core_index, len(server))

    # ------------------------------------------------------------------
    def _deliver_af_xdp(self, socket, packet):
        if self.probe is not None:
            self.probe.softirq_end(packet)
        if not socket.enqueue(packet):
            self.drops["socket_overflow"] += 1
        else:
            self.delivered += 1

    def _protocol_done(self, packet):
        if self.probe is not None:
            self.probe.softirq_end(packet)
        if packet.is_tcp:
            # established connections bypass socket selection entirely
            socket = self.tcp_connections.get(packet.flow)
            if socket is not None:
                if not socket.enqueue(packet):
                    self.drops["socket_overflow"] += 1
                else:
                    self.delivered += 1
                return
        group = self.socket_table.group(packet.dst_port)
        if group is None or not group.sockets:
            self.drops["no_socket"] += 1
            if self.probe is not None:
                self.probe.drop(packet, "no_socket")
            return
        socket = None
        if self.socket_select_hook is not None:
            action, target = self.socket_select_hook.decide(packet)
            if action == "drop":
                self.drops["select_drop"] += 1
                if self.probe is not None:
                    self.probe.drop(packet, "select_drop")
                return
            if action == "target":
                socket = target
        if socket is None:
            socket = group[group.default_select(packet)]
        if packet.is_tcp:
            # this was the connection-establishing packet: pin the flow
            self.tcp_connections[packet.flow] = socket
        if not socket.enqueue(packet):
            self.drops["socket_overflow"] += 1
        else:
            self.delivered += 1

    # ------------------------------------------------------------------
    def bind_af_xdp(self, queue_index, socket):
        """Bind an AF_XDP socket directly to an RX queue (no policy)."""
        self.afxdp_bindings[queue_index] = socket

    def close_connection(self, flow):
        """Tear down an established TCP connection (FIN/RST); the next
        packet on this flow re-runs connection scheduling."""
        return self.tcp_connections.pop(flow, None) is not None

    def total_drops(self):
        return sum(self.drops.values())
