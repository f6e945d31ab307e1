"""Userspace token-replenishment agent (paper §3.4 / §5.2.2).

Every epoch (100 us) the agent grants the latency-sensitive user a fresh
bucket of tokens sized for the generation rate, and *gifts any leftover*
tokens to the best-effort user.  The kernel-side half (the TOKEN_BASED
policy) consumes one token per admitted request and drops on empty — the
ReFlex-style admission control evaluated in Figure 7.
"""

from repro.sim.timers import PeriodicTimer

__all__ = ["TokenAgent"]


class TokenAgent:
    def __init__(
        self,
        machine,
        token_map,
        ls_user,
        be_user,
        rate_per_sec=350_000,
        epoch_us=100.0,
    ):
        self.machine = machine
        self.token_map = token_map
        self.ls_user = ls_user
        self.be_user = be_user
        self.epoch_us = epoch_us
        self.tokens_per_epoch = int(round(rate_per_sec * epoch_us / 1e6))
        if self.tokens_per_epoch <= 0:
            raise ValueError("rate/epoch combination yields zero tokens")
        self.epochs = 0
        # initial grant so the first epoch is not a hard outage
        self.token_map.update(self.ls_user, self.tokens_per_epoch)
        self.token_map.update(self.be_user, 0)
        self._timer = PeriodicTimer(machine.engine, epoch_us, self._replenish)
        self._timer.arm()

    def _replenish(self):
        self.epochs += 1
        leftover = self.token_map.lookup(self.ls_user) or 0
        # gift unused LS tokens to the best-effort user...
        self.token_map.update(self.be_user, leftover)
        # ...and refill the LS bucket for the new epoch.
        self.token_map.update(self.ls_user, self.tokens_per_epoch)

    def stop(self):
        self._timer.stop()
