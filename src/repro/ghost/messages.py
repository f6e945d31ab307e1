"""Thread state-change messages (the ghOSt message-passing API)."""

__all__ = ["Message", "MessageKind"]


class MessageKind:
    THREAD_CREATED = "thread_created"
    THREAD_WAKEUP = "thread_wakeup"
    THREAD_BLOCKED = "thread_blocked"
    THREAD_PREEMPTED = "thread_preempted"
    THREAD_DEPARTED = "thread_departed"
    # Elastic core arbitration (repro.kernel.arbiter): the enclave's
    # core set changed.  ``thread`` is None; ``core`` names the cid.
    CORE_GRANTED = "core_granted"
    CORE_REVOKED = "core_revoked"

    ALL = frozenset((
        THREAD_CREATED,
        THREAD_WAKEUP,
        THREAD_BLOCKED,
        THREAD_PREEMPTED,
        THREAD_DEPARTED,
        CORE_GRANTED,
        CORE_REVOKED,
    ))


class Message:
    """One state-change notification delivered to the agent."""

    __slots__ = ("kind", "thread", "core", "time")

    def __init__(self, kind, thread, core=None, time=0.0):
        if kind not in MessageKind.ALL:
            raise ValueError(f"unknown message kind {kind!r}")
        self.kind = kind
        self.thread = thread
        self.core = core
        self.time = time

    def __repr__(self):
        where = f" core={self.core}" if self.core is not None else ""
        tid = self.thread.tid if self.thread is not None else None
        return f"<Message {self.kind} tid={tid}{where} t={self.time:.1f}>"
