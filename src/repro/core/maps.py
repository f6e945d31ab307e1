"""The Syrup Map abstraction (paper §3.4).

Maps are the cross-layer communication channel: policies in the kernel/NIC
and application code in userspace share them.  This module wraps the raw
:mod:`repro.ebpf.maps` objects with what the framework adds:

- **pinning** to a sysfs-like path so programs of the same user can share
  them ("pinned to sysfs by syrupd"),
- **permissions** via the pin's mode (private to the owning app, or shared),
- **placement** and its access cost: userspace access to a host map costs
  ~1 us, to a NIC-resident (offloaded) map ~25 us — Table 3.  Access *from
  policy code* running in the same layer is an ordinary memory access and
  costs nothing extra, exactly as the paper notes.

Atomicity model (paper §4.1): no locks; per-key atomic read-modify-write via
``atomic_add``; benign races are expected and tolerated by policies.

Accounting (``userspace_ops``, the modeled ``userspace_time_us``) is inline
in each userspace op, one Python frame per op.  Observability: with
``Machine(metrics=True)`` every op also increments per-``(owner, "maps")``
counters (``<map>.lookups`` / ``.updates`` / ``.deletes`` / ``.atomic_adds``
plus ``<map>.contended``) and feeds an ``<map>.op_latency_us`` histogram,
so map contention and placement cost are visible in ``syrupctl stats``
without touching Table-3 harness code.
"""

from repro.ebpf.maps import ArrayMap, HashMap

__all__ = ["MapRegistry", "PermissionDenied", "SyrupMap"]

HOST = "host"
OFFLOAD = "offload"


class PermissionDenied(PermissionError):
    """An app tried to open a map pinned by another app without permission."""


class SyrupMap:
    """A pinned map with placement-dependent userspace access costs.

    Userspace accessors (``lookup``/``update``/...) return immediately —
    the simulation is single-threaded — but every call accrues the modeled
    access latency in ``userspace_time_us`` so harnesses (and Table 3) can
    account for it, and callers running inside simulated processes can
    sleep ``op_latency_us()`` to model it inline.  ``placement`` and the
    cost models are read once, at pin time: a pinned map never moves, and
    ``op_latency_us()`` always equals what the ops book.
    """

    def __init__(self, bpf_map, owner, path, costs, nic_spec,
                 placement=HOST, shared=False, metrics=None):
        self.bpf_map = bpf_map
        self.owner = owner
        self.path = path
        self.placement = placement
        self.costs = costs
        self.nic_spec = nic_spec
        self.shared = shared
        self.userspace_ops = 0
        self.userspace_time_us = 0.0
        # dict of obs metric objects (see MapRegistry.create), or None
        self._metrics = metrics
        if placement == OFFLOAD:
            base = nic_spec.offload_map_access_us
            extra = nic_spec.offload_map_contended_extra_us
        else:
            base = costs.host_map_access_us
            extra = costs.host_map_contended_extra_us
        self._latency_us = (base + 0.0, base + extra)  # (plain, contended)

    @property
    def name(self):
        return self.bpf_map.name

    def op_latency_us(self, contended=False):
        """Modeled latency of one userspace map operation."""
        return self._latency_us[1 if contended else 0]

    # -- userspace API (syr_map_* of Table 1) ---------------------------
    # Each op books itself inline: one frame per op while metrics are off.
    def lookup(self, key, contended=False):
        self.userspace_ops += 1
        latency = self._latency_us[1 if contended else 0]
        self.userspace_time_us += latency
        if self._metrics is not None:
            self._metrics["lookups"].inc()
            if contended:
                self._metrics["contended"].inc()
            self._metrics["op_latency_us"].observe(latency)
        return self.bpf_map.lookup(key)

    def update(self, key, value, contended=False):
        self.userspace_ops += 1
        latency = self._latency_us[1 if contended else 0]
        self.userspace_time_us += latency
        if self._metrics is not None:
            self._metrics["updates"].inc()
            if contended:
                self._metrics["contended"].inc()
            self._metrics["op_latency_us"].observe(latency)
        self.bpf_map.update(key, value)

    def delete(self, key, contended=False):
        self.userspace_ops += 1
        latency = self._latency_us[1 if contended else 0]
        self.userspace_time_us += latency
        if self._metrics is not None:
            self._metrics["deletes"].inc()
            if contended:
                self._metrics["contended"].inc()
            self._metrics["op_latency_us"].observe(latency)
        return self.bpf_map.delete(key)

    def atomic_add(self, key, delta, contended=False):
        self.userspace_ops += 1
        latency = self._latency_us[1 if contended else 0]
        self.userspace_time_us += latency
        if self._metrics is not None:
            self._metrics["atomic_adds"].inc()
            if contended:
                self._metrics["contended"].inc()
            self._metrics["op_latency_us"].observe(latency)
        return self.bpf_map.atomic_add(key, delta)

    def items(self):
        return self.bpf_map.items()

    def __repr__(self):
        return f"<SyrupMap {self.path} placement={self.placement}>"


class MapRegistry:
    """Pin/open maps by path with owner-based permissions."""

    def __init__(self, costs, nic_spec, obs=None):
        self.costs = costs
        self.nic_spec = nic_spec
        self.obs = obs
        self._pinned = {}

    @staticmethod
    def pin_path(app_name, map_name):
        return f"/sys/fs/bpf/syrup/{app_name}/{map_name}"

    def create(self, app_name, map_name, size=256, kind="hash",
               placement=HOST, shared=False):
        """Create and pin a map owned by ``app_name``.

        Re-creating an existing path returns the existing map (programs of
        one app share maps by name, paper §3.4).
        """
        path = self.pin_path(app_name, map_name)
        existing = self._pinned.get(path)
        if existing is not None:
            return existing
        if kind == "array":
            raw = ArrayMap(map_name, size)
        elif kind == "hash":
            raw = HashMap(map_name, size)
        else:
            raise ValueError(f"unknown map kind {kind!r}")
        metrics = None
        if self.obs is not None and self.obs.enabled:
            reg = self.obs.registry
            metrics = {
                op: reg.counter(app_name, "maps", f"{map_name}.{op}")
                for op in ("lookups", "updates", "deletes", "atomic_adds",
                           "contended")
            }
            metrics["op_latency_us"] = reg.histogram(
                app_name, "maps", f"{map_name}.op_latency_us"
            )
        syrup_map = SyrupMap(
            raw, owner=app_name, path=path, placement=placement,
            costs=self.costs, nic_spec=self.nic_spec, shared=shared,
            metrics=metrics,
        )
        self._pinned[path] = syrup_map
        return syrup_map

    def open(self, path, app_name):
        """Open a pinned map; filesystem-permission check (paper §3.4)."""
        syrup_map = self._pinned.get(path)
        if syrup_map is None:
            raise KeyError(f"no map pinned at {path}")
        if syrup_map.owner != app_name and not syrup_map.shared:
            raise PermissionDenied(
                f"app {app_name!r} may not open {path} (owner "
                f"{syrup_map.owner!r}, private)"
            )
        return syrup_map

    def paths(self):
        return sorted(self._pinned)
