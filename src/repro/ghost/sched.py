"""Kernel side of ghOSt: the scheduling class that defers to the agent.

The kernel's role is mechanical (paper §4.1): detect state changes, notify
the agent, and act on committed transactions by interrupting remote cores
and context-switching.  All *decisions* happen in the userspace agent.
"""

from repro.ghost.messages import Message, MessageKind
from repro.kernel.sched import ThreadScheduler
from repro.kernel.threads import RUNNABLE

__all__ = ["GhostScheduler"]


class GhostScheduler(ThreadScheduler):
    """Thread scheduler that forwards events to a ghOSt agent.

    ``cores`` must exclude the core dedicated to the spinning agent (the
    throughput cost the paper measures in Figure 8b).
    """

    def __init__(self, engine, cores, costs, probe=None):
        super().__init__(engine, cores, costs, probe)
        self.agent = None  # set by GhostAgent

    # -- event forwarding -------------------------------------------------
    def _notify(self, kind, thread, core=None):
        # The agent's only message entry: queue it and arm the drain.
        agent = self.agent
        if agent is None or agent.crashed:
            return  # a dead process receives nothing
        if thread is not None and thread.tid not in agent.enclave.members:
            return  # isolation: foreign-app events are invisible
        agent.inbox.append(Message(kind, thread, core, self.engine.now))
        if not agent._busy:
            agent._busy = True
            self.engine.post(0.0, agent._drain)

    def attach(self, thread):
        super().attach(thread)
        self._notify(MessageKind.THREAD_CREATED, thread)

    # -- elastic core grants (repro.kernel.arbiter) -----------------------
    def add_core(self, core):
        """Accept a granted core; the agent learns and re-decides."""
        if core in self.cores:
            return
        self.cores.append(core)
        self._notify(MessageKind.CORE_GRANTED, None, core.cid)

    def remove_core(self, core):
        """Release a revoked core without stranding its work.

        Every in-flight commit transaction is aborted first through the
        agent's commit-epoch guard (a commit landing on a core that is
        no longer ours must not take effect); the running thread is
        then preempted with partial progress kept and handed back to
        the agent as a THREAD_PREEMPTED message, followed by the
        CORE_REVOKED notification that triggers a re-decide over the
        surviving cores.
        """
        if self.agent is not None:
            self.agent.abort_inflight()
        elif core.pending_commit is not None:
            if self.probe is not None:
                self.probe.placement_abort(core.pending_commit)
            core.pending_commit = None
        victim = self.preempt(core)
        core.last_blocked = None
        self.cores.remove(core)
        if victim is not None:
            self._notify(MessageKind.THREAD_PREEMPTED, victim, core.cid)
        self._notify(MessageKind.CORE_REVOKED, None, core.cid)

    def wake(self, thread):
        thread.state = RUNNABLE
        if self.probe is not None:
            self.probe.thread_runnable(thread)
        self._notify(MessageKind.THREAD_WAKEUP, thread)

    def _core_idle(self, core):
        # the blocked notification carries the freed core
        self._notify(MessageKind.THREAD_BLOCKED, core.last_blocked, core.cid)

    # -- transaction commit (called by the agent after commit+IPI delays) --
    def commit(self, thread, core):
        """Place ``thread`` on ``core``; returns False if the txn aborts.

        Aborts mirror ghOSt's failed transactions: the target thread is no
        longer runnable (it ran and blocked elsewhere) or is already on a
        CPU.
        """
        core.pending_commit = None
        if core not in self.cores:
            return False  # revoked between decision and IPI landing
        if thread.state != RUNNABLE or not thread.ensure_work():
            return False
        if core.thread is thread:
            return False
        if core.thread is not None:
            victim = self.preempt(core)
            self._notify(MessageKind.THREAD_PREEMPTED, victim, core.cid)
        self._dispatch(core, thread, self.costs.ctx_switch_us)
        return True

    # -- run-loop overrides ------------------------------------------------
    def _run_end(self, core):
        # remember who is about to block so _core_idle can report it
        core.last_blocked = core.thread
        super()._run_end(core)

    def _work_continues(self, core, thread):
        # ghOSt does not reschedule between requests; the thread keeps the
        # core until it blocks or the agent preempts it.
        self._continue_run(core, thread, float("inf"))
