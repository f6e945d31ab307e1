"""UDP sockets, SO_REUSEPORT groups, and the socket table.

Sockets have finite backlogs; overflowing datagrams are dropped and counted
— the mechanism behind Figure 2b's "% Dropped Requests".  A
:class:`ReuseportGroup` is the executor set of the Socket Select hook: many
sockets bound to one port, one scheduling decision per incoming datagram.

A socket backlog may carry a queueing discipline
(:class:`repro.qdisc.discipline.Qdisc`, attached via :meth:`UdpSocket.set_qdisc`
by ``syrupd.deploy_qdisc(layer="socket")``): datagrams then dequeue in rank
order instead of FIFO, and overflow sheds the lowest-priority element
(drop-lowest-rank; with every rank equal this collapses to the historical
drop-tail, see docs/scheduling-order.md).  The plain ``queue`` deque stays
authoritative for elements injected directly by late-binding handoff — it
always drains ahead of the discipline.
"""

from collections import deque

from repro.net.rss import rss_hash

__all__ = ["ReuseportGroup", "SocketTable", "UdpSocket"]


class UdpSocket:
    """A UDP socket with a bounded datagram backlog."""

    __slots__ = (
        "sid",
        "app",
        "port",
        "backlog",
        "queue",
        "thread",
        "is_af_xdp",
        "drops",
        "enqueued",
        "on_enqueue",
        "probe",
        "qdisc",
    )

    def __init__(self, port, app=None, backlog=256, is_af_xdp=False, sid=0,
                 probe=None):
        # Allocated by the owning machine (Machine.create_udp_socket) so
        # ids restart per machine; bare sockets in unit tests share 0.
        self.sid = sid
        self.port = port
        self.app = app
        self.backlog = backlog
        self.queue = deque()
        self.thread = None        # KThread woken on enqueue
        self.is_af_xdp = is_af_xdp
        self.drops = 0
        self.enqueued = 0
        self.on_enqueue = None    # app callback(packet) — e.g. type marking
        self.probe = probe        # repro.obs.probe seam, or None (dark)
        self.qdisc = None         # repro.qdisc.discipline.Qdisc, or None

    def set_qdisc(self, qdisc):
        """Attach a queueing discipline to this backlog (syrupd only)."""
        qdisc.target = f"sid:{self.sid}"
        self.qdisc = qdisc
        return qdisc

    def clear_qdisc(self):
        """Detach the discipline; queued elements drain (in rank order)
        into the plain FIFO backlog so nothing is stranded."""
        qdisc = self.qdisc
        if qdisc is None:
            return None
        self.qdisc = None
        probe = self.probe
        for packet in qdisc.drain():
            if probe is not None:
                probe.qdisc_dequeued(packet)
            self.queue.append(packet)
        return qdisc

    def enqueue(self, packet):
        """Deliver a datagram; returns False (and counts a drop) when full.

        With a discipline attached the element is ranked at enqueue: DROP
        sheds it, overflow sheds the lowest-priority element (which may be
        a previously queued datagram — then the arrival is accepted and
        the victim's span tree ends with ``qdisc_evict``).

        Every drop counted in ``drops`` is reported to the probe here,
        exactly once, so callers only count the refusal.
        """
        qdisc = self.qdisc
        if qdisc is None:
            if len(self.queue) >= self.backlog:
                self.drops += 1
                if self.probe is not None:
                    self.probe.drop(packet, "socket_overflow")
                return False
            if self.probe is not None:
                self.probe.socket_enqueued(packet, self, len(self.queue))
            self.queue.append(packet)
        else:
            probe = self.probe
            depth = len(self.queue) + len(qdisc.queue)
            capacity = max(0, self.backlog - len(self.queue))
            result = qdisc.offer(packet, capacity=capacity)
            if not result.accepted:
                self.drops += 1
                # Rank function said DROP: a policy decision, not
                # congestion — its own reason.  Overflow rejections keep
                # the FIFO path's "socket_overflow" so the PASS-everywhere
                # pairing stays bit-identical.
                if probe is not None:
                    probe.drop(
                        packet,
                        "qdisc_shed" if result.reason == "sched_drop"
                        else "socket_overflow",
                    )
                return False
            if result.evicted is not None:
                self.drops += 1
                if probe is not None:
                    probe.drop(result.evicted, "qdisc_evict")
            if probe is not None:
                probe.socket_enqueued(packet, self, depth)
                probe.qdisc_enqueued(
                    packet, qdisc.layer, result.rank, qdisc.backend_name
                )
        self.enqueued += 1
        if self.on_enqueue is not None:
            self.on_enqueue(packet)
        if self.thread is not None:
            self.thread.wake()
        return True

    def pop(self):
        """Dequeue the next datagram (None if empty).

        Directly-injected datagrams (late-binding handoff appends to
        ``queue``) drain first; then the discipline releases elements in
        rank order.
        """
        if self.queue:
            packet = self.queue.popleft()
            if self.probe is not None:
                self.probe.socket_dequeued(packet, self)
            return packet
        if self.qdisc is not None:
            packet = self.qdisc.take()
            probe = self.probe
            if packet is not None and probe is not None:
                probe.qdisc_dequeued(packet)
                probe.socket_dequeued(packet, self)
            return packet
        return None

    def __len__(self):
        n = len(self.queue)
        if self.qdisc is not None:
            n += len(self.qdisc)
        return n

    def __repr__(self):
        return f"<UdpSocket port={self.port} sid={self.sid} qlen={len(self)}>"


class ReuseportGroup:
    """All sockets bound to one UDP port with SO_REUSEPORT."""

    def __init__(self, port):
        self.port = port
        self.sockets = []

    def add(self, socket):
        if socket.port != self.port:
            raise ValueError(
                f"socket bound to {socket.port}, group is for {self.port}"
            )
        self.sockets.append(socket)
        return len(self.sockets) - 1

    def default_select(self, packet):
        """Linux's default: hash of the datagram's 5-tuple."""
        return rss_hash(packet.flow, salt=0x5EED) % len(self.sockets)

    def __len__(self):
        return len(self.sockets)

    def __getitem__(self, index):
        return self.sockets[index]

    def total_drops(self):
        return sum(s.drops for s in self.sockets)


class SocketTable:
    """Port -> reuseport group."""

    def __init__(self):
        self._groups = {}

    def bind(self, socket):
        """Bind ``socket``; creates the port's group on first bind."""
        group = self._groups.get(socket.port)
        if group is None:
            group = self._groups[socket.port] = ReuseportGroup(socket.port)
        group.add(socket)
        return group

    def group(self, port):
        return self._groups.get(port)

    def ports(self):
        return sorted(self._groups)
