"""Runtime helper semantics shared by the interpreter and the JIT.

Both modes of :mod:`repro.ebpf.vm` call the ones that carry an error code
(map writes) or a zero test (a divisor that is not a literal in
``1 .. U64``), and write a division by such a literal out in place.  For
map reads the interpreter calls these exact functions and the JIT writes
them out on the map's bound ``get``; property tests check the two modes
agree.
Semantics follow eBPF: unsigned 64-bit wraparound, division/modulo by zero
yield 0, map lookups of absent keys read as 0, and map errors (full map,
out-of-range array index) surface as error return codes — a verified program
can never crash the kernel, only observe a failed helper call.
"""

from repro.ebpf.insn import U64
from repro.ebpf.maps import MapFullError

__all__ = [
    "U64",
    "atomic_add",
    "div_u64",
    "map_delete",
    "map_has",
    "map_lookup",
    "map_update",
    "mod_u64",
]

#: Helper error return (the u64 view of -EINVAL-style failures).
HELPER_ERR = U64


def div_u64(a, b):
    """Unsigned division; x/0 == 0 per the eBPF ALU spec."""
    return (a // b) & U64 if b else 0


def mod_u64(a, b):
    """Unsigned modulo; x%0 == 0 (we diverge from eBPF's x%0==x for clarity;
    documented in DESIGN.md)."""
    return (a % b) & U64 if b else 0


def map_lookup(bpf_map, key):
    """Lookup returning 0 for absent keys (NULL pointer reads are impossible
    in our value-based subset, so 0 stands in for NULL)."""
    value = bpf_map.lookup(key & U64)
    return 0 if value is None else value


def map_has(bpf_map, key):
    return 1 if bpf_map.lookup(key & U64) is not None else 0


def map_update(bpf_map, key, value):
    try:
        bpf_map.update(key & U64, value & U64)
    except (KeyError, MapFullError):
        return HELPER_ERR
    return 0


def map_delete(bpf_map, key):
    try:
        return 1 if bpf_map.delete(key & U64) else 0
    except KeyError:
        return HELPER_ERR


def atomic_add(bpf_map, key, delta):
    try:
        return bpf_map.atomic_add(key & U64, delta)
    except (KeyError, MapFullError):
        return HELPER_ERR
