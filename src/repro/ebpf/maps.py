"""Low-level map objects (the analogue of kernel eBPF maps).

These are the raw in-"kernel" data structures.  Pinning, permissions, access
latency, and the userspace Map API (Table 1 of the paper) are layered on top
in :mod:`repro.core.maps`.

Values are unsigned 64-bit integers (the paper: "we have found that 64-bit
unsigned integer values are sufficient for our target applications").
Updates use last-writer-wins with atomic read-modify-write available via
:meth:`BpfMap.atomic_add` — eBPF maps expose no locks, only atomics.

:class:`ArrayMap` and :class:`HashMap` both keep their slots in a dict,
``_values``, that is never rebound: the JIT
(:func:`repro.ebpf.vm.jit_compile`) binds its ``get`` as a program's read,
a lookup without a Python frame.
"""

from repro.ebpf.insn import U64

__all__ = ["ArrayMap", "BpfMap", "HashMap", "MapFullError", "ProgArrayMap"]


class MapFullError(RuntimeError):
    """Raised when inserting into a hash map at max_entries (E2BIG)."""


class BpfMap:
    """Common interface: integer keys to u64 values."""

    kind = "abstract"

    def __init__(self, name, max_entries):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.name = name
        self.max_entries = max_entries

    # Subclasses implement: lookup, update, delete, __len__, items.

    def has(self, key):
        return self.lookup(key) is not None

    def atomic_add(self, key, delta):
        """Read-modify-write add; returns the new value.

        Missing keys read as 0, matching how Syrup policies use
        ``__sync_fetch_and_add`` on map values.
        """
        current = self.lookup(key)
        new = ((0 if current is None else current) + delta) & U64
        self.update(key, new)
        return new

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} {len(self)}/{self.max_entries}>"


class ArrayMap(BpfMap):
    """Fixed-size array of u64, keys 0..max_entries-1, zero-initialized.

    Like BPF_MAP_TYPE_ARRAY: lookups never miss, deletes are invalid.
    Slots are keyed ``0..max_entries-1``: out of range, ``get`` is None.
    """

    kind = "array"

    def __init__(self, name, max_entries):
        super().__init__(name, max_entries)
        self._values = dict.fromkeys(range(max_entries), 0)

    def lookup(self, key):
        if 0 <= key < self.max_entries:
            return self._values[key]
        return None

    def update(self, key, value):
        if not 0 <= key < self.max_entries:
            raise KeyError(f"array map {self.name!r}: key {key} out of range")
        self._values[key] = value & U64

    def assign(self, values):
        """``update(i, values[i])`` for every slot, in one call (the
        sync bus republishes a whole replica each tick)."""
        if len(values) != self.max_entries:
            raise ValueError(
                f"array map {self.name!r}: {len(values)} values for "
                f"{self.max_entries} slots"
            )
        self._values.update(enumerate([value & U64 for value in values]))

    def delete(self, key):
        raise KeyError(f"array map {self.name!r} does not support delete")

    def items(self):
        return list(self._values.items())

    def __len__(self):
        return self.max_entries


class HashMap(BpfMap):
    """BPF_MAP_TYPE_HASH analogue: sparse integer keys, bounded population."""

    kind = "hash"

    def __init__(self, name, max_entries):
        super().__init__(name, max_entries)
        self._values = {}

    def lookup(self, key):
        return self._values.get(key)

    def update(self, key, value):
        if key not in self._values and len(self._values) >= self.max_entries:
            raise MapFullError(
                f"hash map {self.name!r} is full ({self.max_entries} entries)"
            )
        self._values[key] = value & U64

    def delete(self, key):
        return self._values.pop(key, None) is not None

    def items(self):
        return sorted(self._values.items())

    def __len__(self):
        return len(self._values)


class ProgArrayMap(BpfMap):
    """BPF_MAP_TYPE_PROG_ARRAY analogue: tail-call table of loaded programs.

    syrupd's root dispatcher stores each application's policy program here,
    keyed by an index derived from the destination port (§4.3 of the paper).
    """

    kind = "prog_array"

    def __init__(self, name, max_entries):
        super().__init__(name, max_entries)
        self._progs = {}

    def lookup(self, key):
        return self._progs.get(key)

    def update(self, key, program):
        if not 0 <= key < self.max_entries:
            raise KeyError(f"prog array {self.name!r}: key {key} out of range")
        self._progs[key] = program

    def delete(self, key):
        return self._progs.pop(key, None) is not None

    def items(self):
        return sorted(self._progs.items())

    def __len__(self):
        return len(self._progs)
