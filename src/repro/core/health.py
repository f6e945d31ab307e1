"""Deployment health tracking + self-healing lifecycle (docs/robustness.md).

The paper's isolation story (§4.3) bounds the *blast radius* of a bad
policy; this module bounds its *duration*.  Three mechanisms, all driven
by existing signals (hook-site runtime faults, agent crash
notifications) — never by polling timers, so a machine with no faults
schedules zero extra events and stays bit-identical:

- **Quarantine** — each network deployment carries a
  :class:`DeploymentHealth` sliding window of runtime-fault timestamps;
  when more than ``HealthPolicy.max_faults`` land within
  ``window_us``, syrupd uninstalls the policy and the hook falls back
  to kernel-default behaviour (a dispatch miss → default socket hash /
  RSS), exactly the degraded-but-correct mode Vanilla Linux runs in.
- **Rollback** — ``Syrupd.redeploy`` keeps the previous program as
  ``last_good``; if the replacement raises a runtime fault the
  lifecycle manager swaps the old program back (verification failures
  never swap in the first place).
- **Watchdog** — a crashed ghOSt agent is restarted with bounded
  exponential backoff (``backoff_base_us * factor^attempt``, capped);
  after ``max_restarts`` the enclave's threads are re-attached to a
  fresh CFS scheduler on the same cores so no thread is ever stranded
  unrunnable.
"""

from collections import deque

from repro.kernel.cfs import CfsScheduler
from repro.kernel.threads import BLOCKED

__all__ = ["DeploymentHealth", "HealthPolicy", "LifecycleManager"]


class HealthPolicy:
    """Thresholds for the self-healing lifecycle (see docs/robustness.md).

    ``quarantine=False`` disables automatic uninstall (the control arm
    of experiments/figure_faults.py); fault accounting still runs.
    """

    __slots__ = ("quarantine", "window_us", "max_faults", "max_restarts",
                 "backoff_base_us", "backoff_factor", "backoff_cap_us")

    def __init__(self, quarantine=True, window_us=20_000.0, max_faults=8,
                 max_restarts=3, backoff_base_us=200.0, backoff_factor=2.0,
                 backoff_cap_us=20_000.0):
        self.quarantine = quarantine
        self.window_us = window_us
        self.max_faults = max_faults
        self.max_restarts = max_restarts
        self.backoff_base_us = backoff_base_us
        self.backoff_factor = backoff_factor
        self.backoff_cap_us = backoff_cap_us

    def backoff_us(self, attempt):
        """Restart delay for the ``attempt``-th watchdog restart (0-based)."""
        delay = self.backoff_base_us * (self.backoff_factor ** attempt)
        return min(delay, self.backoff_cap_us)

    def __repr__(self):
        return (
            f"<HealthPolicy quarantine={self.quarantine} "
            f"window={self.window_us:.0f}us max_faults={self.max_faults} "
            f"max_restarts={self.max_restarts}>"
        )


class DeploymentHealth:
    """Per-deployment fault accounting over a sliding time window."""

    __slots__ = ("window_us", "max_faults", "_window", "runtime_faults",
                 "crashes", "restarts", "rollbacks")

    def __init__(self, window_us, max_faults):
        self.window_us = window_us
        self.max_faults = max_faults
        self._window = deque()
        self.runtime_faults = 0
        self.crashes = 0
        self.restarts = 0
        self.rollbacks = 0

    def record_fault(self, now):
        """Record one runtime fault; True when the window threshold breaks."""
        self.runtime_faults += 1
        window = self._window
        window.append(now)
        horizon = now - self.window_us
        while window and window[0] < horizon:
            window.popleft()
        return len(window) > self.max_faults

    def faults_in_window(self, now):
        horizon = now - self.window_us
        return sum(1 for ts in self._window if ts >= horizon)

    def as_dict(self, now=None):
        out = {
            "runtime_faults": self.runtime_faults,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "rollbacks": self.rollbacks,
        }
        if now is not None:
            out["faults_in_window"] = self.faults_in_window(now)
        return out

    def __repr__(self):
        return f"<DeploymentHealth {self.as_dict()}>"


class LifecycleManager:
    """Reacts to per-deployment failure signals on behalf of syrupd.

    Owned by :class:`repro.core.syrupd.Syrupd`; entirely event-driven —
    the only events it ever schedules are watchdog restarts, and only
    after an actual crash.
    """

    def __init__(self, syrupd, policy=None):
        self.syrupd = syrupd
        self.policy = policy if policy is not None else HealthPolicy()

    # ------------------------------------------------------------------
    def track(self, deployed):
        """Attach a fresh health record to a new deployment."""
        deployed.health = DeploymentHealth(
            self.policy.window_us, self.policy.max_faults
        )
        return deployed.health

    # -- network-policy runtime faults ---------------------------------
    def note_runtime_fault(self, deployed, exc):
        """One VmFault escaped ``deployed``'s program at its hook site."""
        now = self.syrupd.machine.now
        breach = deployed.health.record_fault(now)
        if deployed.state != "active":
            return
        if deployed.last_good is not None:
            # A replacement program faulting is sufficient cause: swap
            # the last-known-good program back immediately.
            self.syrupd.rollback(deployed, reason="runtime_fault")
            return
        if breach and self.policy.quarantine:
            self.syrupd.quarantine(deployed, reason="fault_window")

    # -- canary demotion -----------------------------------------------
    def demote(self, deployed, reason):
        """Back out a freshly-promoted policy (canary probation breach).

        The enforcement is the same machinery as a runtime-fault
        reaction — last-known-good rollback when one exists, quarantine
        otherwise — but driven by the :class:`CanaryController`'s SLO
        gate rather than a fault window, so ``reason`` carries the gate
        that fired.  Emits one structured ``lifecycle`` event through
        whichever path runs (the unified schema satellite).
        """
        if deployed.state != "active":
            return
        if deployed.last_good is not None:
            self.syrupd.rollback(deployed, reason=reason)
        elif self.policy.quarantine:
            self.syrupd.quarantine(deployed, reason=reason)

    # -- ghOSt agent watchdog ------------------------------------------
    def note_agent_crash(self, deployed):
        """The agent for ``deployed`` crashed; restart or fall back."""
        health = deployed.health
        health.crashes += 1
        if deployed.state != "active":
            return
        if health.restarts >= self.policy.max_restarts:
            self._fallback_to_cfs(deployed)
            return
        attempt = health.restarts
        health.restarts += 1
        delay = self.policy.backoff_us(attempt)
        self.syrupd.machine.engine.post(
            delay, self._restart_agent, deployed, attempt
        )

    def _restart_agent(self, deployed, attempt):
        if deployed.state != "active" or deployed.agent is None:
            return
        deployed.agent.restart()
        self.syrupd._transition(
            "watchdog_restart", deployed.app_name, deployed.hook,
            "watchdog_restarts", fd=deployed.fd, attempt=attempt,
            backoff_us=self.policy.backoff_us(attempt),
        )

    def _fallback_to_cfs(self, deployed):
        """Give the enclave's threads back to a working scheduler.

        The ghOSt agent is gone for good: detach it, clear any in-flight
        commits, preempt enclave threads still running under ghOSt
        dispatch (their run-end events belong to the old scheduler), and
        re-attach every enclave thread to a fresh CFS instance on the
        same cores.  Invariant: afterwards no thread is left RUNNABLE
        without a scheduler that will eventually run it.
        """
        agent = deployed.agent
        scheduler = agent.scheduler
        engine = self.syrupd.machine.engine
        agent.crash()  # idempotent: clears inbox/pending state
        scheduler.agent = None
        enclave = agent.enclave
        members = set(enclave.threads())
        for core in scheduler.cores:
            core.pending_commit = None
            if core.thread is not None and core.thread in members:
                scheduler.preempt(core)
        fallback = CfsScheduler(
            engine, scheduler.cores, self.syrupd.machine.costs
        )
        for thread in enclave.threads():
            thread.state = BLOCKED
            fallback.attach(thread)
        for thread in enclave.threads():
            if thread.ensure_work():
                fallback.wake(thread)
        deployed.state = "fallback"
        deployed.fallback_scheduler = fallback
        machine = self.syrupd.machine
        if machine.scheduler is scheduler:
            machine.scheduler = fallback
        self.syrupd._transition(
            "enclave_fallback", deployed.app_name, deployed.hook,
            "agent_fallbacks", fd=deployed.fd, threads=len(enclave),
            restarts=deployed.health.restarts,
        )
        return fallback
