"""The discrete-event engine.

A minimal, fast event loop.  Callbacks are scheduled at absolute simulated
times (microseconds) on one heap and dispatched in ``(time, seq)`` order,
``seq`` being the order of scheduling — FIFO among same-instant entries.

Scheduling comes in two kinds, split by whether the caller keeps a handle:

- :meth:`Engine.post` / :meth:`Engine.post_at` are fire-and-forget: nothing
  is returned and nothing but the heap entry is allocated.  Most of the
  simulator's events (arrivals, wire hops, IRQ delivery, FIFO service) are
  never cancelled and take this path.
- :meth:`Engine.schedule` / :meth:`Engine.at` / :meth:`Engine.call_soon`
  return an :class:`Event` the caller may cancel.  Cancellation is lazy:
  the entry stays in the heap and is skipped on pop, which keeps both
  operations O(log n) without heap surgery.  A posted entry cannot be
  taken back.

Every heap entry is a 4-tuple so heapq compares C-level floats and ints:
``(time, seq, fn, args)`` for a posted callback and ``(time, seq, None,
event)`` for a cancellable one; the dispatch loop tells them apart by the
``None``.  Both kinds draw ``seq`` from one counter, so mixing them never
reorders anything.  While a callback runs, :attr:`Engine.dispatching` is
its entry's ``seq``, so code that keeps its own schedule off the heap
(drawing ``seq`` from the same counter) can tell which of its entries the
engine would have dispatched first.
"""

from heapq import heappop, heappush

__all__ = ["Engine", "Event", "SimulationError"]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled, cancellable callback.

    Instances are created via :meth:`Engine.schedule` / :meth:`Engine.at` /
    :meth:`Engine.call_soon`; user code only ever cancels them.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Mark this event so the engine skips it.  Idempotent."""
        self.cancelled = True

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.3f} fn={getattr(self.fn, '__name__', self.fn)!r}{state}>"


class Engine:
    """A discrete-event simulation loop with microsecond-resolution time.

    >>> eng = Engine()
    >>> hits = []
    >>> eng.post(5.0, hits.append, 1)
    >>> eng.run()
    >>> (eng.now, hits)
    (5.0, [1])
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._running = False
        self.events_dispatched = 0
        #: ``seq`` of the entry being dispatched; infinity outside run()
        self.dispatching = _INF

    # ------------------------------------------------------------------
    # Scheduling.  Each entry point validates and pushes inline: these are
    # the hottest functions in the simulator and a shared helper would add
    # a Python call per event.  ``not x >= y`` (rather than ``x < y``) also
    # rejects NaN, which would otherwise poison every later heap compare.
    # ------------------------------------------------------------------
    def post(self, delay, fn, *args):
        """Run ``fn(*args)`` ``delay`` microseconds from now; no handle."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def post_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute simulated ``time``; no handle."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, fn, args))

    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` ``delay`` microseconds from now; returns
        the cancellable :class:`Event`."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, None, ev))
        return ev

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at absolute simulated ``time``; returns
        the cancellable :class:`Event`."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, None, ev))
        return ev

    def call_soon(self, fn, *args):
        """Schedule ``fn(*args)`` at the current instant (after pending
        work); returns the cancellable :class:`Event`."""
        return self.at(self.now, fn, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self):
        """Dispatch the next non-cancelled event.  Returns False when idle."""
        before = self.events_dispatched
        self.run(max_events=1)
        return self.events_dispatched != before

    def run(self, until=None, max_events=None):
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulated time, not before ``now``; when
        the next event lies beyond it the clock is advanced exactly to
        ``until`` and the event is left in the heap.  ``events_dispatched``
        is brought up to date when the run returns (or a callback raises),
        not per event.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until} before now={self.now}"
            )
        self._running = True
        heap = self._heap
        count = self.events_dispatched
        # Two float compares per event instead of two ``is not None``
        # tests and an attribute update; a NaN bound never trips either.
        stop = _INF if until is None else until
        last = _INF if max_events is None else count + max_events
        try:
            while heap:
                entry = heappop(heap)
                time, seq, fn, args = entry
                if fn is None:
                    # Cancellable entry: ``args`` is the Event.
                    if args.cancelled:
                        continue
                    fn = args.fn
                    args = args.args
                if time > stop:
                    heappush(heap, entry)   # same (time, seq): same place
                    self.now = until
                    return
                self.now = time
                self.dispatching = seq
                count += 1
                fn(*args)
                if count >= last:
                    return
            if until is not None and until > self.now:
                self.now = until
        finally:
            self.events_dispatched = count
            self.dispatching = _INF
            self._running = False

    def queued(self):
        """Heap entries still queued, cancelled ones included.  O(1); the
        cheap "is anything else going to happen" test for self-re-arming
        tick loops.  :meth:`pending` is the exact count."""
        return len(self._heap)

    def pending(self):
        """Number of live (non-cancelled) events still queued.  O(n)."""
        return sum(
            1 for _t, _s, fn, ev in self._heap
            if fn is not None or not ev.cancelled
        )

    def __repr__(self):
        return f"<Engine now={self.now:.3f}us pending={len(self._heap)}>"
