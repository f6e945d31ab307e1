"""Receive-Side Scaling: 5-tuple hashing.

Real NICs use a Toeplitz hash keyed by a random secret.  We use FNV-1a over
the packed 5-tuple plus a salt, which shares the properties that matter for
the paper's results: deterministic per flow, uniform over flows, and — with
few flows and few buckets — prone to exactly the imbalance that makes
"Vanilla Linux" drop requests in Figure 2.

The hash is a pure function of ``(flow, salt)`` and a run sees a small pool
of flows (the paper's clients use ~50) under one or two salts, so results
are memoised: a packet on a known flow costs a dictionary lookup, not a
``struct.pack`` and a 17-byte Python loop.  The memo is bounded
(:data:`MEMO_SIZE`, least recently used evicted first).
"""

import struct
from functools import lru_cache

__all__ = ["rss_hash", "rss_queue"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

_PACK = struct.Struct("<IHIHBI")

#: Memo capacity: far above flows x salts of any one run (about a hundred),
#: small enough that a sweep over millions of distinct flows stays flat.
MEMO_SIZE = 4096


@lru_cache(maxsize=MEMO_SIZE)
def rss_hash(flow, salt=0):
    """Hash a :class:`~repro.net.packet.FiveTuple` to a u32."""
    data = _PACK.pack(
        flow.src_ip & 0xFFFFFFFF,
        flow.src_port & 0xFFFF,
        flow.dst_ip & 0xFFFFFFFF,
        flow.dst_port & 0xFFFF,
        flow.proto & 0xFF,
        salt & 0xFFFFFFFF,
    )
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    # Fold to 32 bits; xor-fold keeps the avalanche of the top half.
    return (h ^ (h >> 32)) & 0xFFFFFFFF


def rss_queue(flow, num_queues, salt=0):
    """The RSS indirection: queue index for a flow."""
    return rss_hash(flow, salt) % num_queues
