"""The spinning userspace agent.

One agent per application policy, occupying a dedicated core (which is why
Figure 8b's thread-scheduling variants top out slightly lower: "one of the
cores has to be used by the scheduling agent").

The loop mirrors ghOSt: drain the message queue (per-message cost), update
local state, invoke the user-defined matching function, and commit the
returned placements as transactions (commit syscall cost on the agent,
IPI latency before the remote core switches).
"""

from collections import deque

from repro.ghost.messages import MessageKind

__all__ = ["CoreView", "GhostAgent", "SchedStatus"]


class CoreView:
    """One scheduler core as a thread policy sees it.  The agent rewrites
    it in place every pass: valid only inside that ``schedule()`` call."""

    __slots__ = ("cid", "thread", "pending")

    def __init__(self, cid, thread, pending):
        self.cid = cid
        self.thread = thread       # KThread currently running, or None
        self.pending = pending     # a commit is in flight to this core

    @property
    def idle(self):
        return self.thread is None and not self.pending

    def __repr__(self):
        tid = self.thread.tid if self.thread else None
        return f"<CoreView {self.cid} thread={tid} pending={self.pending}>"


class SchedStatus:
    """What a thread policy sees when invoked: its app's runnable threads
    and the state of the cores it may use.  Valid only for the
    ``schedule()`` call it is passed to: ``cores`` is the agent's own list
    of :class:`CoreView`, rewritten in place by the next pass."""

    def __init__(self, now, runnable, cores):
        self.now = now
        self.runnable = runnable       # list of KThread (enclave only)
        self.cores = cores             # list of CoreView

    def idle_cores(self):
        idle = []
        for core in self.cores:
            if core.thread is None and not core.pending:
                idle.append(core)
        return idle

    def __repr__(self):
        return (
            f"<SchedStatus t={self.now:.1f} runnable={len(self.runnable)} "
            f"idle={len(self.idle_cores())}>"
        )


class GhostAgent:
    """Drives a user thread policy over a :class:`GhostScheduler`."""

    def __init__(self, engine, scheduler, enclave, policy, costs,
                 metrics=None, events=None):
        self.engine = engine
        self.scheduler = scheduler
        self.enclave = enclave
        self.policy = policy
        self.costs = costs
        scheduler.agent = self
        self.inbox = deque()
        self._busy = False
        self._pending_threads = set()
        self._views = []  # one CoreView per core, rewritten every pass
        # Crash-fault state (repro.faults): while crashed, the agent
        # ignores every callback until restart() (docs/robustness.md).
        self.crashed = False
        self.crash_count = 0
        self.restart_count = 0
        # Incremented on crash: commits scheduled before a crash carry
        # the old epoch and are discarded even if the agent restarts
        # before their IPI lands.
        self._epoch = 0
        self.messages_processed = 0
        self.commits = 0
        self.failed_commits = 0
        # Commits killed by a core revocation (abort_inflight), kept
        # separate from failed_commits: these never reached the kernel.
        self.revocation_aborts = 0
        self.preemptions = 0
        self.policy_errors = 0
        self.last_error = None
        # Optional dict of obs counters mirroring the attribute counters
        # above ("messages", "preemptions", "commits", "failed_commits",
        # "policy_errors"), plus an event trace; set by syrupd at deploy
        # time when the machine runs with metrics, None otherwise.
        self.metrics = metrics
        self.events = events
        # Optional repro.qdisc.discipline.Qdisc attached by
        # syrupd.deploy_qdisc(layer="runqueue"): orders the runnable list
        # each snapshot, so rank-aware thread policies that serve
        # status.runnable front-to-back pick threads by rank.
        self.runqueue_qdisc = None

    # ------------------------------------------------------------------
    def crash(self):
        """Kill the agent process (fault injection; idempotent).

        Queued messages and in-flight commits die with it: the inbox is
        dropped and every pending commit transaction is aborted — the
        kernel side never acts on a dead agent's transactions.  Threads
        already *running* keep their cores (the kernel runs them, not
        the agent); newly-woken threads go RUNNABLE and wait until the
        watchdog restarts the agent or falls the enclave back to CFS
        (repro.core.health.LifecycleManager).
        """
        self.crashed = True
        self.crash_count += 1
        self._epoch += 1
        self.inbox.clear()
        self._pending_threads.clear()
        self._busy = False
        probe = self.scheduler.probe
        for core in self.scheduler.cores:
            if core.pending_commit is not None and probe is not None:
                probe.placement_abort(core.pending_commit)
            core.pending_commit = None

    def abort_inflight(self):
        """Revocation barrier: kill every in-flight commit transaction.

        Reuses the crash path's commit-epoch guard — the epoch bump
        makes any already-scheduled ``_commit_effect`` a no-op even
        though its engine event still fires, exactly as post-crash
        commits are discarded.  The aborted threads stay RUNNABLE and
        are re-placed on the next decision pass (the CORE_REVOKED
        message that follows a revocation triggers it).
        """
        if self.crashed:
            return  # crash() already aborted everything
        self._epoch += 1
        self._pending_threads.clear()
        probe = self.scheduler.probe
        for core in self.scheduler.cores:
            if core.pending_commit is not None:
                if probe is not None:
                    probe.placement_abort(core.pending_commit)
                core.pending_commit = None
                self.revocation_aborts += 1

    def restart(self):
        """Bring a crashed agent back; re-evaluates the enclave state.

        The restarted agent rebuilds its view from the authoritative
        kernel state (``_snapshot`` reads the enclave's threads
        directly), so RUNNABLE threads that woke while it was dead are
        scheduled on the first decision pass.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.restart_count += 1
        self._busy = True
        self.engine.post(0.0, self._decide)

    # ------------------------------------------------------------------
    # Messages arrive through GhostScheduler._notify, which owns the
    # crashed / foreign-thread guards and arms _drain.
    def _drain(self):
        if self.crashed:
            return
        n = len(self.inbox)
        if n == 0:
            self._busy = False
            return
        preempted = 0
        for message in self.inbox:
            if message.kind == MessageKind.THREAD_PREEMPTED:
                preempted += 1
        self.inbox.clear()
        self.preemptions += preempted
        self.messages_processed += n
        metrics = self.metrics
        if metrics is not None:
            metrics["messages"].inc(n)
            if preempted:
                metrics["preemptions"].inc(preempted)
        self.engine.post(n * self.costs.ghost_msg_us, self._decide)

    def _decide(self):
        if self.crashed:
            return
        status = self._snapshot()
        try:
            placements = self.policy.schedule(status) or []
        except Exception as exc:  # noqa: BLE001 - untrusted user policy
            # A crashing policy is the deploying app's problem only: its
            # threads stop being scheduled (they fall back to nothing, as
            # in ghOSt where the enclave's threads idle), but the rest of
            # the system is untouched (paper §3.2's reliability argument).
            self.policy_errors += 1
            self.last_error = exc
            self._note_policy_error(exc)
            placements = []
        delay = 0.0
        members = self.enclave.members
        cores = self.scheduler.cores
        probe = self.scheduler.probe
        for placement in placements:
            try:
                thread, core_id = placement
                if thread.tid not in members:
                    self.enclave.check(thread)  # raises EnclaveViolation
                if type(core_id) is not int or not 0 <= core_id < len(cores):
                    raise IndexError(f"no core {core_id!r} in the enclave")
            except Exception as exc:  # noqa: BLE001 - contained, counted
                self.policy_errors += 1
                self.last_error = exc
                self._note_policy_error(exc)
                continue
            core = cores[core_id]
            if thread.tid in self._pending_threads or core.pending_commit:
                continue  # stale decision; skip
            self._pending_threads.add(thread.tid)
            core.pending_commit = thread
            if probe is not None:
                probe.placement_begin(thread, core_id)
            delay += self.costs.ghost_commit_us
            self.engine.post(
                delay + self.costs.ghost_ipi_us, self._commit_effect,
                thread, core, self._epoch,
            )
        self.engine.post(delay, self._after_work)

    def _note_policy_error(self, exc):
        metrics, events = self.metrics, self.events
        if metrics is not None:
            metrics["policy_errors"].inc()
        if events is not None:
            events.emit(
                "policy_error", app=self.enclave.app, hook="thread_sched",
                error=type(exc).__name__, detail=str(exc),
            )

    def _commit_effect(self, thread, core, epoch=None):
        if self.crashed or (epoch is not None and epoch != self._epoch):
            return  # the commit died with the agent (crash() aborted it)
        self._pending_threads.discard(thread.tid)
        if self.scheduler.commit(thread, core):
            self.commits += 1
            if self.metrics is not None:
                self.metrics["commits"].inc()
        else:
            self.failed_commits += 1
            if self.scheduler.probe is not None:
                self.scheduler.probe.placement_abort(thread)
            if self.metrics is not None:
                self.metrics["failed_commits"].inc()
            # re-evaluate: the failed target may leave work stranded
            if not self._busy:
                self._busy = True
                self.engine.post(0.0, self._redecide)

    def _redecide(self):
        if self.crashed:
            return
        self.engine.post(self.costs.ghost_msg_us, self._decide)

    def _after_work(self):
        if self.crashed:
            return
        if self.inbox:
            self._drain()
        else:
            self._busy = False

    # ------------------------------------------------------------------
    def _snapshot(self):
        pending = self._pending_threads
        runnable = []
        for thread in self.enclave.members.values():
            if thread.state == "runnable" and thread.tid not in pending:
                runnable.append(thread)
        qdisc = self.runqueue_qdisc
        if qdisc is not None and len(runnable) > 1:
            from repro.qdisc.discipline import ThreadCtx

            # Transient ordering: the runqueue is rebuilt from kernel
            # state every decision, so the qdisc sorts each snapshot by
            # rank (ThreadCtx exposes the tid at offset 0 for Map keys).
            # DROP is treated as PASS — threads cannot be shed.
            runnable = qdisc.order(
                runnable, ctx_factory=lambda t: ThreadCtx(t.tid)
            )
        cores = self.scheduler.cores
        views = self._views
        if len(views) != len(cores):  # add_core / remove_core since last pass
            views[:] = [CoreView(i, None, False) for i in range(len(cores))]
        # cid too: whatever the last schedule() did to the list heals here
        for i, (view, core) in enumerate(zip(views, cores)):
            view.cid = i
            view.thread = core.thread
            view.pending = core.pending_commit is not None
        return SchedStatus(self.engine.now, runnable, views)
