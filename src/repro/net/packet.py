"""Packets and flows.

A simulated datagram stands for real bytes so that Syrup policies genuinely
parse packet contents (the paper's SITA and token policies "peek into the
packet") — but most policies never look, so the bytes are materialised on
the first ``data``/``load`` and a packet nobody reads costs no
serialisation.  Layout (little-endian, documented divergence from network
order), packed by :func:`wire_bytes` — or, for the standard application
header below, by one ``_WIRE`` pack of both headers:

====== ===== =====================================================
offset width field
====== ===== =====================================================
0      2     UDP source port
2      2     UDP destination port
4      2     UDP length
6      2     UDP checksum (always 0 here)
8      ...   application payload (see :func:`build_payload`)
====== ===== =====================================================

The standard application header used by the paper's workloads (RocksDB and
MICA requests) puts a u64 request type at payload offset 0 (packet offset
8, "First 8 bytes are UDP header" — Fig. 5d), then u64 user id, u64 key
hash, u64 request id.

Everything the VM and the JIT read a packet through — ``length``, ``data``
and the bounds-checked ``load`` — lives once, in :class:`WireView`;
:class:`Packet`, :class:`PacketView` and the runqueue layer's
:class:`repro.qdisc.discipline.ThreadCtx` differ only in where their bytes
come from.
"""

import struct
from collections import namedtuple

__all__ = [
    "APP_KEYHASH_OFF",
    "APP_REQID_OFF",
    "APP_TYPE_OFF",
    "APP_USER_OFF",
    "UDP_HEADER_LEN",
    "FiveTuple",
    "Packet",
    "PacketView",
    "WireView",
    "build_payload",
    "wire_bytes",
]

UDP_HEADER_LEN = 8
APP_TYPE_OFF = 8
APP_USER_OFF = 16
APP_KEYHASH_OFF = 24
APP_REQID_OFF = 32

FiveTuple = namedtuple(
    "FiveTuple", ["src_ip", "src_port", "dst_ip", "dst_port", "proto"]
)

_HEADER = struct.Struct("<HHHH")
_APP = struct.Struct("<QQQQ")
_WIRE = struct.Struct("<HHHHQQQQ")   # UDP header + standard app header


def build_payload(req_type, user_id=0, key_hash=0, req_id=0, extra=b""):
    """Serialize the standard application header (+ optional extra bytes)."""
    return _APP.pack(req_type, user_id, key_hash, req_id) + extra


def wire_bytes(src_port, dst_port, payload):
    """The full datagram: UDP header + ``payload``."""
    return _HEADER.pack(
        src_port, dst_port, UDP_HEADER_LEN + len(payload), 0
    ) + payload


class WireView:
    """Bounds-checked little-endian reads over bytes built on first use.

    Subclasses provide ``length`` (known without the bytes) and either
    set ``_data`` up front or leave it None and define ``_build()``, which
    returns the bytes on the first read.
    """

    __slots__ = ("_data",)

    @property
    def data(self):
        data = self._data
        if data is None:
            data = self._data = self._build()
        return data

    def load(self, offset, width):
        """Read ``width`` bytes at ``offset`` (little-endian unsigned).

        Raises IndexError when out of bounds — the verifier guarantees
        policy code never triggers this.
        """
        end = offset + width
        if offset < 0 or end > self.length:
            raise IndexError(
                f"load [{offset}:{end}) out of bounds (len={self.length})"
            )
        data = self._data
        if data is None:
            data = self.data  # first read materialises
        return int.from_bytes(data[offset:end], "little")


class Packet(WireView):
    """A UDP datagram in flight.

    ``payload`` is the application bytes, or None for the standard
    application header of ``request`` (type, user id, key hash, request
    id) — what the load generators send, spelled without building it.
    ``data`` is the full datagram (UDP header + payload); ``request`` is an
    optional reference to the application-level request object so the
    simulator does not need to re-parse bytes outside of policy code.
    """

    __slots__ = ("flow", "payload", "length", "sent_at", "request",
                 "dst_port", "is_tcp", "rx_queue", "softirq_core")

    def __init__(self, flow, payload, sent_at=0.0, request=None):
        if payload is not None:
            self.length = UDP_HEADER_LEN + len(payload)
        elif request is not None:
            self.length = UDP_HEADER_LEN + _APP.size
        else:
            raise ValueError("a packet needs a payload or a request")
        self._data = None
        self.flow = flow
        self.payload = payload
        self.sent_at = sent_at
        self.request = request
        self.dst_port = flow.dst_port
        self.is_tcp = flow.proto == 6
        self.rx_queue = None      # filled in by the NIC delivery path
        self.softirq_core = None  # which softirq core ran protocol processing

    def _build(self):
        if self.payload is not None:
            return wire_bytes(self.flow.src_port, self.dst_port, self.payload)
        request = self.request
        return _WIRE.pack(self.flow.src_port, self.dst_port, self.length, 0,
                          request.rtype, request.user_id, request.key_hash,
                          request.rid)

    def __repr__(self):
        return f"<Packet {self.flow} len={self.length}>"


class PacketView(WireView):
    """A packet facade over an aggregate-flow request (no flow, no
    ``Request`` object — just the header fields).

    The fleet tier (:mod:`repro.cluster.fleet`) simulates hundreds of
    machines under millions of users; its ``FleetRequest`` subclasses
    this, and the standard wire layout is materialised the first time
    policy code calls ``load`` — which only happens for requests that
    actually reach a deployed program (a ToR steering program or a
    per-machine rank function).  Duck-type-compatible with
    :class:`Packet` for the VM, the JIT and
    :class:`repro.qdisc.discipline.Qdisc`.
    """

    __slots__ = ("src_port", "dst_port", "rtype", "user_id", "key_hash",
                 "rid")

    length = UDP_HEADER_LEN + _APP.size

    def __init__(self, rtype, user_id=0, key_hash=0, rid=0,
                 src_port=0, dst_port=0):
        self._data = None
        self.src_port = src_port
        self.dst_port = dst_port
        self.rtype = rtype
        self.user_id = user_id
        self.key_hash = key_hash
        self.rid = rid

    def _build(self):
        return _WIRE.pack(self.src_port, self.dst_port, self.length, 0,
                          self.rtype, self.user_id, self.key_hash, self.rid)

    def __repr__(self):
        return (
            f"<PacketView rid={self.rid} rtype={self.rtype} "
            f"user={self.user_id}>"
        )
