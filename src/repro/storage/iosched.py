"""IO scheduling hook: match IO requests to device queues.

Same matching shape as the network hooks — a policy maps an input (an
:class:`~repro.storage.device.IoRequest`) to an executor index (an NVMe
queue), or PASS (default striping) or DROP (reject, e.g. admission
control).  :class:`IoTokenPolicy` is the ReFlex-style policy the paper's
§3.4/§6.1 discussion points at: latency-critical tenants spend tokens;
requests beyond the provisioned rate are rejected rather than allowed to
destroy tail latency for everyone.
"""

from repro.constants import DROP, PASS
from repro.sim.timers import PeriodicTimer

__all__ = ["IoHook", "IoTokenPolicy"]


class IoHook:
    """Dispatches IO submissions through a user policy to a device."""

    def __init__(self, device, policy=None):
        self.device = device
        self.policy = policy    # callable(IoRequest) -> queue index/PASS/DROP
        self._rr = 0
        self.dropped = 0

    def submit(self, request, on_complete=None):
        """Returns True if the request was accepted by a queue."""
        index = None
        if self.policy is not None:
            decision = self.policy(request)
            if decision == DROP:
                self.dropped += 1
                return False
            if decision != PASS:
                index = decision % self.device.num_queues
        if index is None:
            index = self._default_queue()
        return self.device.submit(index, request, on_complete)

    def _default_queue(self):
        """Stripe over queues not reserved for provisioned tenants."""
        reserved = set(getattr(self.policy, "reserved_queues", ()))
        candidates = [
            i for i in range(self.device.num_queues) if i not in reserved
        ] or list(range(self.device.num_queues))
        index = candidates[self._rr % len(candidates)]
        self._rr += 1
        return index


class IoTokenPolicy:
    """ReFlex-like token-bucket admission + tenant-to-queue partitioning.

    Each latency-critical tenant is provisioned ``rate_iops``; tokens
    refill every ``epoch_us``.  Requests from provisioned tenants that find
    an empty bucket are rejected (fail fast, as MittOS also argues); best-
    effort tenants (no reservation) PASS through to the striped remainder.

    Provisioned tenants get a dedicated queue each (SLO isolation); the
    policy returns that queue index on admission.
    """

    def __init__(self, engine, epoch_us=100.0):
        self.engine = engine
        self.epoch_us = epoch_us
        self._tenants = {}       # tenant -> dict(tokens, per_epoch, queue)
        self._timer = PeriodicTimer(engine, epoch_us, self._refill)
        self._timer.arm()
        self.rejections = 0

    def provision(self, tenant, rate_iops, queue):
        per_epoch = max(1, int(round(rate_iops * self.epoch_us / 1e6)))
        self._tenants[tenant] = {
            "tokens": per_epoch,
            "per_epoch": per_epoch,
            "queue": queue,
        }

    @property
    def reserved_queues(self):
        """Queues dedicated to provisioned tenants (skipped by striping)."""
        return {state["queue"] for state in self._tenants.values()}

    def _refill(self):
        for state in self._tenants.values():
            state["tokens"] = state["per_epoch"]

    def stop(self):
        self._timer.stop()

    # -- the matching function -------------------------------------------
    def __call__(self, request):
        state = self._tenants.get(request.tenant)
        if state is None:
            return PASS  # best-effort: default striping
        if state["tokens"] <= 0:
            self.rejections += 1
            return DROP
        state["tokens"] -= 1
        return state["queue"]
