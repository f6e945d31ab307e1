"""Generator-coroutine processes.

Control-plane logic (agents, load generators, experiment drivers) reads best
as sequential code.  A :class:`Process` wraps a generator; the generator
yields either

- a ``float``/``int`` — sleep that many microseconds, or
- a :class:`Waiter` — park until someone calls :meth:`Waiter.wake`.

Data-plane code (per-packet handling) deliberately does *not* use processes;
it is written callback-style directly against the engine for speed.
"""

__all__ = ["Process", "Waiter", "spawn"]


class Waiter:
    """A one-shot wakeup channel a process can yield on.

    >>> # inside a process generator:
    >>> # value = yield waiter        # parks until waiter.wake(value)
    """

    __slots__ = ("_process", "_value", "_woken")

    def __init__(self):
        self._process = None
        self._value = None
        self._woken = False

    def wake(self, value=None):
        """Wake the parked process (or record the value if none parked yet)."""
        self._value = value
        self._woken = True
        proc = self._process
        if proc is not None:
            self._process = None
            proc._resume(value)


class Process:
    """A running generator-coroutine.  Created via :func:`spawn`."""

    def __init__(self, engine, generator, name=None):
        self.engine = engine
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self.alive = True
        self.result = None
        engine.post(0.0, self._resume, None)

    def _resume(self, value):
        if not self.alive:
            return
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            return
        if isinstance(yielded, (int, float)):
            self.engine.post(yielded, self._resume, None)
        elif isinstance(yielded, Waiter):
            if yielded._woken:
                # wake() raced ahead of the yield; resume immediately.
                yielded._woken = False
                self.engine.post(0.0, self._resume, yielded._value)
            else:
                yielded._process = self
        else:
            self.alive = False
            raise TypeError(
                f"process {self.name!r} yielded {yielded!r}; "
                "expected a delay (number) or a Waiter"
            )

    def kill(self):
        """Terminate the process; it will never be resumed again."""
        self.alive = False
        self._gen.close()


def spawn(engine, generator, name=None):
    """Start ``generator`` as a simulation process on ``engine``."""
    return Process(engine, generator, name=name)
