"""Request-level scheduling over streams (paper §6.4, KCM).

Scheduling requests inside a TCP stream is hard because request boundaries
do not align with packet boundaries.  Linux's Kernel Connection Multiplexor
(KCM) lets users "programmatically identify request boundaries across
packets in TCP streams and do request-level scheduling."

This module models that: a :class:`StreamConnection` accumulates arriving
segments into a byte stream; a user-supplied *framer* (a small parser over
the buffered bytes, the analogue of KCM's BPF program) extracts complete
requests; each extracted request is then scheduled to a worker socket by an
ordinary Syrup-style matching function — request-level scheduling over a
byte stream.

The default framer understands length-prefixed messages:
``u32 little-endian length`` followed by that many payload bytes.
"""

import struct

__all__ = ["KcmMultiplexor", "StreamConnection", "length_prefixed_framer"]

_LEN = struct.Struct("<I")


def length_prefixed_framer(buffer):
    """Extract one ``u32 length || payload`` message; returns
    ``(consumed_bytes, payload)`` or ``None`` when incomplete."""
    if len(buffer) < _LEN.size:
        return None
    (length,) = _LEN.unpack_from(buffer, 0)
    total = _LEN.size + length
    if len(buffer) < total:
        return None
    return total, bytes(buffer[_LEN.size : total])


class StreamConnection:
    """One TCP-like connection's receive state."""

    __slots__ = ("conn_id", "buffer", "bytes_received", "messages_extracted")

    def __init__(self, conn_id):
        self.conn_id = conn_id
        self.buffer = bytearray()
        self.bytes_received = 0
        self.messages_extracted = 0

    def feed(self, data):
        self.buffer.extend(data)
        self.bytes_received += len(data)


class KcmMultiplexor:
    """Demultiplexes framed requests from streams onto worker sockets.

    Args:
        framer: ``framer(buffer) -> (consumed, payload) | None``.
        schedule: matching function ``schedule(conn_id, payload) -> index``
            into ``workers`` (Syrup's socket-select shape).  None = round
            robin.
        workers: list of objects with ``enqueue(item)`` (e.g. UdpSocket) or
            plain callables.
    """

    def __init__(self, framer=None, schedule=None, workers=()):
        self.framer = framer or length_prefixed_framer
        self.schedule = schedule
        self.workers = list(workers)
        self._connections = {}
        self._rr = 0
        self.malformed = 0

    def connection(self, conn_id):
        conn = self._connections.get(conn_id)
        if conn is None:
            conn = self._connections[conn_id] = StreamConnection(conn_id)
        return conn

    def receive_segment(self, conn_id, data):
        """Feed one arriving segment; dispatch every completed request."""
        conn = self.connection(conn_id)
        conn.feed(data)
        dispatched = []
        while True:
            result = self.framer(conn.buffer)
            if result is None:
                break
            consumed, payload = result
            if consumed <= 0:
                self.malformed += 1
                break
            del conn.buffer[:consumed]
            conn.messages_extracted += 1
            dispatched.append(self._dispatch(conn_id, payload))
        return dispatched

    def _dispatch(self, conn_id, payload):
        if not self.workers:
            raise RuntimeError("KCM multiplexor has no workers")
        if self.schedule is not None:
            index = self.schedule(conn_id, payload) % len(self.workers)
        else:
            index = self._rr % len(self.workers)
            self._rr += 1
        worker = self.workers[index]
        if hasattr(worker, "enqueue"):
            worker.enqueue(payload)
        else:
            worker(payload)
        return index

    def pending_bytes(self, conn_id):
        conn = self._connections.get(conn_id)
        return len(conn.buffer) if conn else 0
