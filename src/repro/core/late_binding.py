"""Late binding for socket selection (paper §6.3).

Why this module exists in the dispatch path: early binding (the default
:class:`~repro.core.hooks.HookSite` behavior) chooses a packet's executor
at *arrival* time, which can strand a short request behind a long one in
the chosen socket — the intra-socket head-of-line blocking Figure 6's
SCAN-heavy tails come from.  Late binding inverts the decision: inputs
are buffered centrally and the matching function runs when an *executor*
becomes available — "when a thread calls recvmsg on a socket" —
eliminating that blocking at the cost of a central queue.

Implementation, in dispatch order:

1. A :class:`LateBinder` installs a hook-site-compatible shim at the
   Socket Select slot (it satisfies the same ``decide``/``cost_us``
   protocol the netstack expects of a :class:`HookSite`), steering every
   owned-port datagram into a central buffer — a pseudo-socket with a
   large backlog.
2. Each server thread's work source is rewired to pull from that buffer
   when its own socket is empty, so a freed executor immediately runs the
   user-supplied ``pick(thread_index, buffered_packets)`` matching
   function to choose *which buffered input* it takes (default: FCFS;
   :func:`shortest_first_pick` models SITA-style service-time awareness).

Because the shim bypasses the regular hook site, it carries its own
observability: with machine ``metrics=True`` the binder counts
``late_bind_buffered`` / ``late_bind_drops`` under the deploying app's
``socket_select`` scope (docs/observability.md), and a packet refused by a
full buffer reaches the probe as a ``late_bind_overflow`` drop.
"""

from collections import deque


__all__ = ["LateBinder", "fcfs_pick", "shortest_first_pick"]


def fcfs_pick(thread_index, packets):
    """Default late-binding policy: first come, first served."""
    return 0


def shortest_first_pick(thread_index, packets):
    """Prefer the buffered request with the smallest expected service time.

    Peeks at the request type like SITA does; a useful policy when a few
    long requests would otherwise delay many short ones.
    """
    best = 0
    best_service = None
    for i, packet in enumerate(packets):
        request = packet.request
        service = request.service_us if request is not None else 0.0
        if best_service is None or service < best_service:
            best, best_service = i, service
    return best


class _BufferTarget:
    """The pseudo-socket the hook steers into: append + wake an idle thread."""

    __slots__ = ("binder",)

    def __init__(self, binder):
        self.binder = binder

    def enqueue(self, packet):
        return self.binder._buffer_packet(packet)


class _HookSiteShim:
    """Socket-select hook protocol: always target the central buffer."""

    hook = "socket_select"

    def __init__(self, binder, ports):
        self.binder = binder
        self.ports = set(ports)
        self.target = _BufferTarget(binder)

    def decide(self, packet):
        if packet.dst_port in self.ports:
            return ("target", self.target)
        return ("none", None)

    def cost_us(self, packet):
        return 0.1 if packet.dst_port in self.ports else 0.0


class _ChainedSource:
    """Thread work source: own socket first, then the shared buffer."""

    __slots__ = ("binder", "index", "inner")

    def __init__(self, binder, index, inner):
        self.binder = binder
        self.index = index
        self.inner = inner

    def pull(self):
        item = self.inner.pull()
        if item is not None:
            return item
        packet = self.binder._take(self.index)
        if packet is None:
            return None
        # route through the server's costing/markings via the inner source
        self.inner.socket.queue.append(packet)
        return self.inner.pull()

    def complete(self, token):
        self.inner.complete(token)


class LateBinder:
    def __init__(self, machine, app, server, pick=None, capacity=4096):
        self.machine = machine
        self.server = server
        self.pick = pick or fcfs_pick
        self.capacity = capacity
        self.buffer = deque()
        self.drops = 0
        self.buffered_total = 0
        registry = machine.obs.registry
        self._m_buffered = self._m_drops = None
        if registry is not None:
            self._m_buffered, self._m_drops = registry.counters(
                app.name, "socket_select",
                ("late_bind_buffered", "late_bind_drops")).values()
        shim = _HookSiteShim(self, app.ports)
        if machine.netstack.socket_select_hook is not None:
            raise ValueError(
                "late binding replaces the Socket Select hook; undeploy the "
                "early-binding policy first"
            )
        machine.netstack.socket_select_hook = shim
        for i, thread in enumerate(server.threads):
            thread.source = _ChainedSource(self, i, thread.source)

    # ------------------------------------------------------------------
    def _buffer_packet(self, packet):
        if len(self.buffer) >= self.capacity:
            self.drops += 1
            if self._m_drops is not None:
                self._m_drops.inc()
            probe = self.machine.netstack.probe
            if probe is not None:
                probe.drop(packet, "late_bind_overflow")
            return False
        self.buffer.append(packet)
        self.buffered_total += 1
        if self._m_buffered is not None:
            self._m_buffered.inc()
        for thread in self.server.threads:
            if thread.state == "blocked":
                thread.wake()
                break
        return True

    def _take(self, thread_index):
        if not self.buffer:
            return None
        index = self.pick(thread_index, self.buffer)
        if not 0 <= index < len(self.buffer):
            index = 0
        if index == 0:
            return self.buffer.popleft()
        packet = self.buffer[index]
        del self.buffer[index]
        return packet

    def __len__(self):
        return len(self.buffer)
