"""Thread-scheduling policies (ghOSt backend, paper §5.3).

These run in userspace inside the agent: plain Python objects exposing
``schedule(status) -> [(thread, core_index), ...]``.  They read
application-populated Syrup Maps to make request-aware decisions — the
cross-layer communication the Map abstraction exists for.
"""

from repro.workload.requests import GET, SCAN

__all__ = ["FifoThreadPolicy", "GetPriorityPolicy"]


class FifoThreadPolicy:
    """Work-conserving FIFO: place runnable threads onto idle cores."""

    def schedule(self, status):
        placements = []
        idle = status.idle_cores()
        for thread, core in zip(status.runnable, idle):
            placements.append((thread, core.cid))
        return placements


class GetPriorityPolicy:
    """Shinjuku-style strict priority for GET-serving threads (§5.3).

    Threads whose pending/current request is a GET (per the app-populated
    ``type_map``) are placed first and may preempt threads processing
    SCANs.  SCAN threads run on whatever is left.
    """

    def __init__(self, type_map):
        self.type_map = type_map

    def schedule(self, status):
        # One type_map read per runnable thread per pass (an absent entry
        # is neither GET nor SCAN, so it queues behind the GETs).
        lookup = self.type_map.lookup
        gets, others = [], []
        for thread in status.runnable:
            (gets if lookup(thread.tid) == GET else others).append(thread)
        # 1) idle cores: GETs first, then the rest.
        placements = []
        for thread, core in zip(gets + others, status.idle_cores()):
            placements.append((thread, core.cid))
        # 2) remaining GETs may preempt cores running SCAN threads.
        gets_left = gets[len(placements):]
        if gets_left:
            victims = [
                core
                for core in status.cores
                if core.thread is not None
                and not core.pending
                and lookup(core.thread.tid) == SCAN
            ]
            for thread, core in zip(gets_left, victims):
                placements.append((thread, core.cid))
        return placements
