"""Generic multi-threaded UDP server scaffolding.

A :class:`UdpServer` owns N server threads, each bound to its own
SO_REUSEPORT socket on the shared port (the paper's RocksDB setup).  Each
thread's work source is its socket queue; per-request CPU cost is
``recv syscall + application service time + send syscall``.

Subclasses hook :meth:`on_request_start` / :meth:`on_request_complete` to do
real application work and to publish scheduling state into Syrup Maps (the
"userspace component" of policies like SCAN Avoid, Fig. 5b).
"""

import functools

from repro.kernel.threads import KThread
from repro.stats.meters import Counter

__all__ = ["ServerStats", "SocketWorkSource", "UdpServer"]


class ServerStats:
    def __init__(self):
        self.completed = Counter()

    def __repr__(self):
        return f"<ServerStats completed={self.completed.total()}>"


class SocketWorkSource:
    """Thread work source backed by a socket queue; ``complete`` is the
    server's ``on_request_complete`` bound to the thread's index."""

    __slots__ = ("server", "thread_index", "socket", "complete")

    def __init__(self, server, thread_index, socket):
        self.server = server
        self.thread_index = thread_index
        self.socket = socket
        self.complete = functools.partial(server.on_request_complete,
                                          thread_index)

    def pull(self):
        packet = self.socket.pop()
        if packet is None:
            return None
        request = packet.request
        cost = self.server.request_cost(request, packet, self.thread_index)
        self.server.on_request_start(self.thread_index, request)
        return (cost, request)


class UdpServer:
    """N threads, N SO_REUSEPORT sockets, one port."""

    def __init__(self, machine, app, port, num_threads):
        self.machine = machine
        self.engine = machine.engine
        self.app = app
        self.port = port
        self.num_threads = num_threads
        self.stats = ServerStats()
        #: Wired to the load generator: callable(request) at server-send time.
        self.response_sink = None
        self.sockets = []
        self.threads = []
        for i in range(num_threads):
            socket = machine.create_udp_socket(app, port)
            # Paper §4.4: the app controls the executor-map index per socket.
            app.register_socket(socket, i)
            thread = KThread(tid=i, name=f"{app.name}-worker-{i}", app=app.name)
            thread.source = SocketWorkSource(self, i, socket)
            socket.thread = thread
            socket.on_enqueue = functools.partial(self.on_enqueue, i)
            app.register_thread(thread)
            machine.scheduler.attach(thread)
            self.sockets.append(socket)
            self.threads.append(thread)

    # ------------------------------------------------------------------
    def request_cost(self, request, packet=None, thread_index=None):
        costs = self.machine.costs
        cost = costs.recv_syscall_us + request.service_us + costs.send_syscall_us
        if (
            costs.remote_softirq_us
            and packet is not None
            and packet.softirq_core is not None
            and thread_index is not None
        ):
            # locality (paper §2.1, RFS): protocol processing on the app
            # core's hyperthread buddy keeps the packet warm in cache
            thread = self.threads[thread_index]
            buddy = (thread.home_core if thread.home_core is not None
                     else thread_index) % len(self.machine.netstack.softirq)
            if packet.softirq_core != buddy:
                cost += costs.remote_softirq_us
        return cost

    # -- subclass hooks ---------------------------------------------------
    def on_enqueue(self, thread_index, packet):
        """Called when a datagram lands in thread ``thread_index``'s socket."""

    def on_request_start(self, thread_index, request):
        """Called when a worker thread starts serving ``request``."""

    def on_request_complete(self, thread_index, request):
        """Book the completion and send the response."""
        self.stats.completed.add(self.engine.now, request.rtype)
        if self.response_sink is not None:
            self.response_sink(request)

    # ------------------------------------------------------------------
    def total_socket_drops(self):
        return sum(s.drops for s in self.sockets)
