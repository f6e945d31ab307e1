"""Enclaves: per-application thread visibility boundaries.

ghOSt's isolation property (paper §4.3): "each Syrup thread policy running
in a ghOSt userspace process can only see thread state and can only schedule
threads that belong to its own application."  The enclave is that boundary —
agents receive messages for, and may place, only enclave members.
"""

__all__ = ["Enclave", "EnclaveViolation"]


class EnclaveViolation(PermissionError):
    """A policy attempted to schedule a thread outside its enclave."""


class Enclave:
    """``members`` (tid -> KThread) is read in place by the agent's pass and
    the ghOSt class's ``_notify``; only register() / remove() write it."""

    def __init__(self, app):
        self.app = app
        self.members = {}

    def register(self, thread):
        if thread.app != self.app:
            raise EnclaveViolation(
                f"thread {thread.tid} belongs to app {thread.app!r}, "
                f"not {self.app!r}"
            )
        self.members[thread.tid] = thread

    def remove(self, thread):
        self.members.pop(thread.tid, None)

    def __contains__(self, thread):
        return thread.tid in self.members

    def threads(self):
        return list(self.members.values())

    def check(self, thread):
        if thread.tid not in self.members:
            raise EnclaveViolation(
                f"policy for app {self.app!r} tried to schedule foreign "
                f"thread {thread.tid}"
            )

    def __len__(self):
        return len(self.members)
