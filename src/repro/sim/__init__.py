"""Discrete-event simulation substrate.

Time is measured in microseconds (``float``).  The engine is a plain
binary-heap event loop tuned for the hot path: scheduling, cancelling, and
dispatching millions of events per simulated second of a packet-processing
pipeline.

Public surface:

- :class:`~repro.sim.engine.Engine` — the event loop.
- :class:`~repro.sim.engine.Event` — a cancellable scheduled callback.
- :class:`~repro.sim.rng.RngStreams` — named, independently-seeded RNG
  streams so components draw deterministic but uncorrelated randomness.
- :class:`~repro.sim.timers.PeriodicTimer` — the one self-re-arming
  fixed-interval loop; the flight recorder, the signal bus and the Map
  sync bus subclass it.
- :func:`~repro.sim.process.spawn` — generator-coroutine processes for
  control-plane logic (agents, load generators) that reads naturally as
  sequential code.
"""

from repro.sim.engine import Engine, Event, SimulationError
from repro.sim.process import Process, spawn
from repro.sim.rng import RngStreams
from repro.sim.timers import PeriodicTimer

__all__ = [
    "Engine",
    "Event",
    "SimulationError",
    "PeriodicTimer",
    "Process",
    "RngStreams",
    "spawn",
]
