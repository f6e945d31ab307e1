"""Thread-scheduler machinery.

:class:`ThreadScheduler` owns the shared mechanics of running threads on
cores — dispatch, run completion, preemption, remaining-service accounting —
while subclasses provide policy:

- :class:`PinnedScheduler` — one thread pinned per core (the setup of the
  paper's §5.2 experiments: 6 RocksDB threads on 6 cores).
- :class:`~repro.kernel.cfs.CfsScheduler` — a CFS-like timeslice scheduler
  (the oblivious baseline of §5.3).
- :class:`~repro.ghost.sched.GhostScheduler` — delegation to a userspace
  agent (the ghOSt backend).
"""

import math

from repro.kernel.threads import BLOCKED, RUNNABLE, RUNNING

__all__ = ["PinnedScheduler", "ThreadScheduler"]

_EPS = 1e-9


class ThreadScheduler:
    """Base class: mechanics only, no placement policy."""

    def __init__(self, engine, cores, costs, probe=None):
        self.engine = engine
        self.cores = list(cores)
        self.costs = costs
        self.threads = []
        # Instrumentation seam (repro.obs.probe), None when no telemetry
        # tier listens: threads reach it through their scheduler for
        # service_begin/end; CFS/ghOSt wakes report thread_runnable (the
        # start of the runqueue wait).
        self.probe = probe

    # -- subclass policy interface --------------------------------------
    def wake(self, thread):
        raise NotImplementedError

    def _core_idle(self, core):
        """A core just became idle (its thread blocked)."""

    def _work_continues(self, core, thread):
        """Thread finished an item and immediately has another."""
        self._continue_run(core, thread, math.inf)

    def _slice_expired(self, core, thread):
        """Planned run ended but the item is unfinished (timeslice ran out).

        Only possible when a subclass dispatched with a finite budget.
        """
        raise AssertionError("slice expiry without a timeslice policy")

    # -- shared mechanics ------------------------------------------------
    def attach(self, thread):
        thread.scheduler = self
        self.threads.append(thread)

    def _dispatch(self, core, thread, ctx_cost, budget=math.inf):
        """Start ``thread`` on ``core`` after ``ctx_cost`` of switching."""
        run_for = min(thread.remaining, budget)
        thread.state = RUNNING
        core.thread = thread
        core.run_started = self.engine.now + ctx_cost
        core.run_planned = run_for
        core.run_event = self.engine.schedule(
            ctx_cost + run_for, self._run_end, core
        )

    def _continue_run(self, core, thread, budget):
        """Keep the current thread running (no context switch)."""
        run_for = min(thread.remaining, budget)
        core.run_started = self.engine.now
        core.run_planned = run_for
        core.run_event = self.engine.schedule(run_for, self._run_end, core)

    def _run_end(self, core):
        thread = core.thread
        core.run_event = None
        core.busy_us += core.run_planned
        thread.remaining -= core.run_planned
        if thread.remaining <= _EPS:
            thread.finish_item()
            if thread.ensure_work():
                self._work_continues(core, thread)
            else:
                thread.state = BLOCKED
                core.thread = None
                self._core_idle(core)
        else:
            self._slice_expired(core, thread)

    def preempt(self, core):
        """Forcibly deschedule the running thread; returns it RUNNABLE.

        Partially-executed work keeps its progress (remaining service
        decreases by the time actually run).
        """
        thread = core.thread
        if thread is None:
            return None
        if core.run_event is not None:
            core.run_event.cancel()
            core.run_event = None
        ran = min(max(0.0, self.engine.now - core.run_started), core.run_planned)
        core.busy_us += ran
        thread.remaining -= ran
        thread.state = RUNNABLE
        core.thread = None
        return thread

    def runnable_threads(self):
        return [t for t in self.threads if t.state == RUNNABLE]


class PinnedScheduler(ThreadScheduler):
    """One thread per core, run-to-completion.

    The default setup for socket-level scheduling experiments: the thread
    scheduler is a non-factor, isolating the effect of the network-layer
    policy (paper §5.2).
    """

    def attach(self, thread):
        super().attach(thread)
        if thread.home_core is None:
            thread.home_core = (len(self.threads) - 1) % len(self.cores)

    def wake(self, thread):
        core = self.cores[thread.home_core]
        if core.thread is not None:
            return  # already running; it will pull the new work itself
        if thread.ensure_work():
            thread.state = RUNNABLE
            self._dispatch(core, thread, self.costs.ctx_switch_us)
