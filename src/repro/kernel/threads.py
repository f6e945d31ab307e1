"""Kernel threads.

A :class:`KThread` is a schedulable entity that pulls work items from a
*source* (normally a server thread's socket queue).  The source protocol:

- ``source.pull()`` → ``(cost_us, token)`` or ``None`` when no work is
  pending.  ``cost_us`` is the CPU time the item needs on an app core
  (syscalls + application service time).
- ``source.complete(token)`` — called when the item's CPU time has been
  fully applied (the server sends the response here).

Thread states follow the kernel's: BLOCKED (no work), RUNNABLE (work
pending, waiting for a core), RUNNING (on a core).
"""

__all__ = ["BLOCKED", "KThread", "RUNNABLE", "RUNNING"]

BLOCKED = "blocked"
RUNNABLE = "runnable"
RUNNING = "running"


class KThread:
    """A schedulable kernel thread."""

    __slots__ = (
        "tid",
        "name",
        "app",
        "state",
        "source",
        "remaining",
        "token",
        "home_core",
        "scheduler",
        "items_completed",
    )

    def __init__(self, tid, name=None, app=None, source=None, home_core=None):
        self.tid = tid
        self.name = name or f"thread-{tid}"
        self.app = app
        self.state = BLOCKED
        self.source = source
        self.remaining = 0.0
        self.token = None
        self.home_core = home_core
        self.scheduler = None
        self.items_completed = 0

    def ensure_work(self):
        """Load the next work item if idle; returns True if work is held."""
        if self.token is not None:
            return True
        if self.source is None:
            return False
        item = self.source.pull()
        if item is None:
            return False
        self.remaining, self.token = item
        if (self.scheduler is not None
                and self.scheduler.probe is not None):
            self.scheduler.probe.service_begin(self, self.token)
        return True

    def finish_item(self):
        """Complete the current item (source callback fires here)."""
        token = self.token
        self.token = None
        self.remaining = 0.0
        self.items_completed += 1
        if (self.scheduler is not None
                and self.scheduler.probe is not None):
            self.scheduler.probe.service_end(self, token)
        self.source.complete(token)

    def wake(self):
        """Notify the scheduler that work arrived for this thread."""
        if self.scheduler is not None and self.state == BLOCKED:
            self.scheduler.wake(self)

    def __repr__(self):
        return f"<KThread {self.name} {self.state} remaining={self.remaining:.1f}>"
