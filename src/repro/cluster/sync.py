"""Cross-machine Maps propagation with explicit staleness modeling.

On one machine a Syrup Map is a shared-memory object: a policy's read
sees the userspace write of a microsecond ago.  Across a rack there is
no shared memory — state the ToR switch steers on (per-machine queue
depths, expected delays) must be *carried* there, by piggybacked
response headers (RackSched) or by an agent publishing on a cadence.
Either way the reader sees the past.  This module makes that staleness a
first-class, configurable model instead of an accident:

- every ``interval_us`` of simulated time the bus **snapshots** each
  registered channel's ground truth (e.g. every machine's instantaneous
  queue depth), and
- applies the snapshot to the reader-side replica ``delay_us`` later
  (the propagation delay of the wire/agent path).

A steering policy reading the replica at time ``t`` therefore sees truth
from ``t - age`` where ``age ∈ [delay_us, delay_us + interval_us)`` —
the same bounded-staleness window a RackSched switch or a gossiping
load-balancer operates under.  ``staleness_us()`` reports the current
age so experiments can sweep it and telemetry can record it.

Determinism: the bus draws no randomness and snapshots/applies channels
in registration order; the engine's FIFO tie-break at equal timestamps
makes replica application order reproducible, so two seeded runs make
bit-identical steering decisions (tests/test_fleet.py locks this with
paired runs).  The bus is a :class:`~repro.sim.timers.PeriodicTimer`
that re-arms only while its ``active`` predicate holds (the fleet
supplies "load still in flight"), so a drained run terminates exactly
like one without a bus.
"""

from repro.sim.timers import PeriodicTimer

__all__ = ["MapSyncBus", "SyncChannel"]

DEFAULT_INTERVAL_US = 50.0
DEFAULT_DELAY_US = 25.0


class SyncChannel:
    """One replicated signal: a snapshot closure and an apply closure."""

    __slots__ = ("name", "snapshot", "apply", "applied", "last_stamp_us")

    def __init__(self, name, snapshot, apply):
        self.name = name
        self.snapshot = snapshot      # () -> value (read ground truth)
        self.apply = apply            # (value, stamp_us) -> None (replica)
        self.applied = 0
        self.last_stamp_us = None     # sim-time the applied snapshot was taken

    def __repr__(self):
        return (
            f"<SyncChannel {self.name!r} applied={self.applied} "
            f"last_stamp={self.last_stamp_us}>"
        )


class MapSyncBus(PeriodicTimer):
    """Periodic snapshot → delayed apply replication between machines.

    ``interval_us`` is the publish cadence, ``delay_us`` the propagation
    delay; ``active`` is a zero-arg predicate — the bus keeps ticking
    while it returns True (always, when None; in-flight snapshots still
    apply after it goes False, they are one-shot events).
    """

    def __init__(self, engine, interval_us=DEFAULT_INTERVAL_US,
                 delay_us=DEFAULT_DELAY_US, active=None):
        super().__init__(engine, interval_us, self.publish, active)
        if delay_us < 0:
            raise ValueError(f"delay_us must be >= 0, got {delay_us}")
        self.delay_us = float(delay_us)
        self.channels = []
        self.ticks = 0

    # ------------------------------------------------------------------
    def add_channel(self, name, snapshot, apply):
        """Register a replicated signal; returns the channel handle."""
        channel = SyncChannel(name, snapshot, apply)
        self.channels.append(channel)
        return channel

    def channel(self, name):
        for ch in self.channels:
            if ch.name == name:
                return ch
        raise KeyError(f"no sync channel named {name!r}")

    # ------------------------------------------------------------------
    def publish(self):
        """One tick: snapshot every channel, apply each ``delay_us`` on."""
        self.ticks += 1
        now = self.engine.now
        for channel in self.channels:
            value = channel.snapshot()
            self.engine.post(self.delay_us, self._apply, channel, value, now)

    def _apply(self, channel, value, stamp_us):
        channel.apply(value, stamp_us)
        channel.applied += 1
        channel.last_stamp_us = stamp_us

    # ------------------------------------------------------------------
    def staleness_us(self, name=None):
        """Age of the replica: now minus the applied snapshot's stamp.

        ``None`` before the first apply.  With several channels, ``name``
        picks one (default: the first registered).
        """
        if not self.channels:
            return None
        channel = self.channel(name) if name else self.channels[0]
        if channel.last_stamp_us is None:
            return None
        return self.engine.now - channel.last_stamp_us

    def __repr__(self):
        return (
            f"<MapSyncBus interval={self.interval_us}us "
            f"delay={self.delay_us}us channels={len(self.channels)} "
            f"ticks={self.ticks}>"
        )
