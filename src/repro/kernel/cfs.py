"""A CFS-like baseline thread scheduler.

Models what matters about CFS for the paper's §5.3 result: it timeslices
fairly among runnable threads on a core and is *oblivious to request types*
— it will not preempt a thread serving a 700 us SCAN because a thread
holding a 10 us GET just woke up.  (Real CFS has vruntime bookkeeping and
load balancing; we use per-core round-robin with a fixed timeslice and
static thread→core assignment, a standard simplification that preserves the
head-of-line behaviour under study.  DESIGN.md records the divergence.)
"""

from collections import deque

from repro.kernel.sched import ThreadScheduler
from repro.kernel.threads import BLOCKED, RUNNABLE

__all__ = ["CfsScheduler"]


class CfsScheduler(ThreadScheduler):
    def __init__(self, engine, cores, costs, probe=None):
        super().__init__(engine, cores, costs, probe)
        self._rq = {core.cid: deque() for core in cores}
        # Threads left coreless by a revocation that emptied the core
        # set (elastic arbitration, repro.kernel.arbiter); drained by
        # the next grant.  Always empty on statically-cored machines.
        self._orphans = deque()

    def attach(self, thread):
        super().attach(thread)
        if thread.home_core is None:
            thread.home_core = (len(self.threads) - 1) % max(
                1, len(self.cores)
            )

    # -- elastic core grants (repro.kernel.arbiter) ---------------------
    def add_core(self, core):
        """Accept a granted core; it immediately pulls queued work."""
        if core in self.cores:
            return
        self.cores.append(core)
        self._rq.setdefault(core.cid, deque())
        if core.thread is None:
            self._core_idle(core)

    def remove_core(self, core):
        """Release a revoked core, migrating its work — never strand.

        The running thread (if any) is preempted with its partial
        progress kept, then it and the core's runqueue are re-queued on
        the shortest surviving runqueues; surviving idle cores pick up
        immediately.  With no surviving core the threads park on the
        orphan list until the next grant.
        """
        self.cores.remove(core)
        rq = self._rq.pop(core.cid, deque())
        victim = self.preempt(core)
        migrants = deque()
        if victim is not None:
            migrants.append(victim)  # it was running: front of the line
        migrants.extend(rq)
        if not self.cores:
            self._orphans.extend(migrants)
            return
        for thread in migrants:
            target = min(
                self.cores,
                key=lambda c: len(self._rq[c.cid])
                + (0 if c.thread is None else 1),
            )
            self._rq[target.cid].append(thread)
        for candidate in list(self.cores):
            if candidate.thread is None:
                self._pick_next(candidate)

    # ------------------------------------------------------------------
    def wake(self, thread):
        if not self.cores:
            # between revocation and the next grant: park runnable
            thread.state = RUNNABLE
            if self.probe is not None:
                self.probe.thread_runnable(thread)
            self._orphans.append(thread)
            return
        # Wake balancing: prefer the home core, else any idle core — CFS is
        # work-conserving across cores (select_idle_sibling et al.).
        core = self.cores[thread.home_core % len(self.cores)]
        if core.thread is not None or self._rq[core.cid]:
            for candidate in self.cores:
                if candidate.thread is None and not self._rq[candidate.cid]:
                    core = candidate
                    break
        thread.state = RUNNABLE
        if self.probe is not None:
            self.probe.thread_runnable(thread)
        self._rq[core.cid].append(thread)
        if core.thread is None:
            self._pick_next(core)

    def _pick_next(self, core):
        rq = self._rq[core.cid]
        while rq or self._orphans:
            thread = rq.popleft() if rq else self._orphans.popleft()
            if not thread.ensure_work():
                # Raced: the work was drained elsewhere; leave it blocked.
                thread.state = BLOCKED
                continue
            core.slice_end = (
                self.engine.now + self.costs.ctx_switch_us + self.costs.timeslice_us
            )
            self._dispatch(
                core, thread, self.costs.ctx_switch_us, self.costs.timeslice_us
            )
            return
        # nothing runnable

    def _core_idle(self, core):
        self._pick_next(core)
        if core.thread is None:
            self._steal_into(core)

    def _steal_into(self, core):
        """Idle balancing: pull from the longest other runqueue."""
        donor = max(
            (c for c in self.cores if c is not core),
            key=lambda c: len(self._rq[c.cid]),
            default=None,
        )
        if donor is None or not self._rq[donor.cid]:
            return
        thread = self._rq[donor.cid].popleft()
        self._rq[core.cid].append(thread)
        self._pick_next(core)

    def _work_continues(self, core, thread):
        rq = self._rq[core.cid]
        budget = core.slice_end - self.engine.now
        if budget <= 0:
            if rq or self._orphans:
                self._rotate(core, thread, rq)
                return
            # alone on the core: renew the slice
            core.slice_end = self.engine.now + self.costs.timeslice_us
            budget = self.costs.timeslice_us
        self._continue_run(core, thread, budget)

    def _slice_expired(self, core, thread):
        rq = self._rq[core.cid]
        if rq or self._orphans:
            self._rotate(core, thread, rq)
        else:
            core.slice_end = self.engine.now + self.costs.timeslice_us
            self._continue_run(core, thread, self.costs.timeslice_us)

    def _rotate(self, core, thread, rq):
        """Round-robin: re-queue the descheduled thread behind waiters.

        With an empty local runqueue the waiters are orphans (elastic
        revocation transient), so the thread joins the back of the
        orphan line instead to keep the rotation fair.
        """
        thread.state = RUNNABLE
        if rq:
            rq.append(thread)
        else:
            self._orphans.append(thread)
        core.thread = None
        self._pick_next(core)
