"""The SignalBus: telemetry snapshots published into Syrup Maps.

The observability plane (PR 1–4) is operator-facing — counters, rings,
span trees an engineer reads after the fact.  Closing the loop (ROADMAP
"closed-loop adaptive scheduling"; RackSched's core argument) needs the
*datapath* to read telemetry, and in Syrup the one channel a verified
policy can read at decision time is a **Map**.  The
:class:`SignalBus` is the bridge: on a fixed simulated-time cadence it

1. reads each registered **signal** (a zero-arg callable over registry
   sketches/gauges, the SLO tracker, the tail analyzer — anything) and
   optionally publishes the value into a designated Map via syrupd's
   normal map-update path (so map-op metrics and placement costs apply
   like any other update), then
2. runs each registered **controller** — a closure implementing a
   control law (SLO-aware shed level, SRPT threshold auto-tuning,
   blame-aware steering weights) over the freshly read signals.

Fleet runs compose this with :class:`repro.cluster.sync.MapSyncBus`:
per-machine SignalBuses publish into local Maps and the sync bus
replicates them to the ToR with bounded staleness.

Determinism contract: the bus only ever runs when explicitly
constructed (``Machine(signals=...)``).  It is a
:class:`~repro.sim.timers.PeriodicTimer`, like the flight recorder, but
its ticks **do** change behavior — that is the point:
controllers write Maps the datapath reads.  Off is ``None``: a machine
built without ``signals=`` holds no bus (``machine.signals is None``),
and simulation output is bit-identical to builds without this module
(the audit test in ``tests/test_adaptive.py`` holds this line).
"""

from repro.sim.timers import PeriodicTimer

__all__ = ["SignalBus"]

DEFAULT_INTERVAL_US = 5_000.0


class SignalBus(PeriodicTimer):
    """Periodic signal sampling + control laws over simulated time.

    ``active`` is an optional zero-arg predicate, settable after
    construction; the bus re-arms only while it returns True (and the
    engine heap is non-empty), so a drained simulation still terminates
    — the :class:`~repro.obs.timeseries.FlightRecorder` rule.
    """

    def __init__(self, engine, interval_us=DEFAULT_INTERVAL_US, active=None):
        super().__init__(
            engine, interval_us, self.tick_once,
            lambda: engine.queued() and (
                self.active is None or self.active()),
        )
        self.active = active
        self.ticks = 0
        self.signals = []       # (name, read, publish-or-None)
        self.controllers = []   # (name, control)
        self.last = {}          # signal name -> last read value
        self.last_tick_at = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_signal(self, name, read, publish=None):
        """Register a signal: ``read()`` every tick, value cached in
        ``last[name]`` and handed to ``publish(value)`` when given.

        ``publish`` is typically a Map write — e.g.
        ``lambda v: shed_map.update(0, int(v))`` — which routes through
        the normal syrupd map-op accounting.
        """
        self.signals.append((name, read, publish))
        return self

    def add_controller(self, name, control):
        """Register a control law run (in order) after every sample.

        Controllers are zero-arg closures; they read ``bus.last`` or
        whatever telemetry they captured, decide, and write their
        actuation Maps.
        """
        self.controllers.append((name, control))
        return self

    def remove_controller(self, name):
        """Unregister every controller called ``name`` (missing is ok).

        Rebuilds the list, so a controller may remove *itself* from
        inside a tick — the in-flight pass finishes over the old list
        (the CanaryController's self-unregistration idiom).
        """
        self.controllers = [
            (n, control) for n, control in self.controllers if n != name
        ]
        return self

    # ------------------------------------------------------------------
    # Ticking
    # ------------------------------------------------------------------
    def tick_once(self):
        """One sample + control pass, outside the schedule (tests too)."""
        self.ticks += 1
        self.last_tick_at = self.engine.now
        for name, read, publish in self.signals:
            value = read()
            self.last[name] = value
            if publish is not None:
                publish(value)
        for _name, control in self.controllers:
            control()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(self):
        """JSON-safe operator snapshot (``syrupctl slo`` footer)."""
        return {
            "interval_us": self.interval_us,
            "ticks": self.ticks,
            "last_tick_at": self.last_tick_at,
            "signals": [name for name, _r, _p in self.signals],
            "controllers": [name for name, _c in self.controllers],
            "last": {
                name: value for name, value in sorted(self.last.items())
                if isinstance(value, (int, float, str, bool, type(None)))
            },
        }

    def __repr__(self):
        return (
            f"<SignalBus interval={self.interval_us:g}us "
            f"signals={len(self.signals)} "
            f"controllers={len(self.controllers)} ticks={self.ticks}>"
        )
