"""CPU cores and FIFO service queues.

Two kinds of execution resources appear in the model:

- :class:`FifoServer` — a core that serves a FIFO of fixed-cost work items
  (softirq/IRQ processing, the ghOSt agent's message loop).  It is the
  classic M/G/1 server and is deliberately simple.
- :class:`Core` — an application core driven by a thread scheduler
  (:mod:`repro.kernel.sched`): it runs one thread at a time, tracks the
  thread's remaining service, and supports preemption.
"""

from collections import deque

__all__ = ["Core", "FifoServer"]


class FifoServer:
    """A single server draining a FIFO of (cost, callback) work items.

    ``capacity`` bounds the queue (the NIC ring / softirq backlog); submits
    beyond it are refused and the caller counts a drop.
    """

    def __init__(self, engine, name, capacity=None):
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._queue = deque()
        self._busy = False
        self.busy_us = 0.0
        self.served = 0

    def __len__(self):
        # the item in service is the head of ``_queue``
        return len(self._queue)

    def submit(self, cost, fn, *args):
        """Enqueue a work item; returns False when the queue is full."""
        if self.capacity is not None and len(self._queue) >= self.capacity:
            return False
        self._queue.append((cost, fn, args))
        if not self._busy:
            self._busy = True
            self.engine.post(cost, self._finish)
        return True

    def _finish(self):
        queue = self._queue
        cost, fn, args = queue.popleft()
        self.busy_us += cost
        self.served += 1
        if queue:
            self.engine.post(queue[0][0], self._finish)
        else:
            self._busy = False
        fn(*args)

    def utilization(self, now):
        return self.busy_us / now if now > 0 else 0.0

    def __repr__(self):
        return f"<FifoServer {self.name} qlen={len(self)}>"


class Core:
    """An application core.  All scheduling logic lives in the scheduler;
    the core only records what is running and when it started."""

    __slots__ = (
        "cid",
        "thread",
        "run_event",
        "run_started",
        "run_planned",
        "slice_end",
        "pending_commit",
        "last_blocked",
        "busy_us",
    )

    def __init__(self, cid):
        self.cid = cid
        self.thread = None          # currently-running KThread
        self.run_event = None       # engine event for the end of this run
        self.run_started = 0.0      # when execution (post context switch) began
        self.run_planned = 0.0      # planned run duration
        self.slice_end = 0.0        # CFS slice expiry
        self.pending_commit = None  # ghOSt: thread being IPI'd onto this core
        self.last_blocked = None    # ghOSt: thread that most recently blocked
        self.busy_us = 0.0

    @property
    def idle(self):
        return self.thread is None and self.pending_commit is None

    def utilization(self, now):
        return self.busy_us / now if now > 0 else 0.0

    def __repr__(self):
        tid = self.thread.tid if self.thread else None
        return f"<Core {self.cid} thread={tid}>"
