"""The periodic tick loop built on the engine."""

__all__ = ["PeriodicTimer"]


class PeriodicTimer:
    """Run ``tick()`` every ``interval_us`` of simulated time once armed.

    The tree's one self-re-arming loop: the token-replenishment agent
    (paper section 3.4: userspace code replenishes tokens each epoch),
    the flight recorder, the signal bus and the Map sync bus all tick
    through it.  After each tick it re-schedules itself while ``rearm()``
    holds (always, when ``rearm`` is None), so a loop whose rule reads
    "other events remain" lets a drained heap end the run.
    """

    def __init__(self, engine, interval_us, tick, rearm=None):
        if interval_us <= 0:
            raise ValueError(f"interval_us must be positive, got {interval_us}")
        self.engine = engine
        self.interval_us = float(interval_us)
        self.tick = tick
        self.rearm = rearm
        self._event = None      # the pending tick Event, if any

    def arm(self):
        """Schedule the next tick ``interval_us`` from now (idempotent)."""
        if self._event is None:
            self._event = self.engine.schedule(self.interval_us, self._tick)

    def stop(self):
        """Cancel the pending tick; from inside a tick, skip the re-arm."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self):
        event = self._event
        self.tick()
        if self._event is not event:
            return              # stop()ped inside the tick
        rearm = self.rearm
        if rearm is None or rearm():
            self._event = self.engine.schedule(self.interval_us, self._tick)
        else:
            self._event = None
