"""Application-level requests.

Request type codes travel inside packet payloads (u64 at payload offset 0)
so that policies can classify requests by peeking at bytes, as the paper's
SITA policy does.
"""

__all__ = ["GET", "PUT", "Request", "SCAN", "TYPE_NAMES", "type_name"]

GET = 1
SCAN = 2
PUT = 3

TYPE_NAMES = {GET: "GET", SCAN: "SCAN", PUT: "PUT"}


def type_name(rtype):
    return TYPE_NAMES.get(rtype, f"type-{rtype}")


class Request:
    """One client request and its lifecycle timestamps."""

    __slots__ = (
        "rid",
        "rtype",
        "user_id",
        "key",
        "key_hash",
        "service_us",
        "sent_at",
        "completed_at",
        "cohort",
        "tenant",
        "flight",
    )

    def __init__(self, rid, rtype, service_us, user_id=0, key=0, key_hash=0,
                 tenant=None):
        self.rid = rid
        self.rtype = rtype
        self.user_id = user_id
        self.key = key
        self.key_hash = key_hash
        self.service_us = service_us
        self.sent_at = 0.0
        self.completed_at = None
        # Canary-split bucket in [0, 100), stamped once by the first
        # CanarySplit that sees the request; None outside promotions.
        self.cohort = None
        # Owning tenant (short string) for per-tenant accounting and
        # interference blame (repro.obs.accounting); None — the default
        # everywhere — keeps the request invisible to the accountant.
        self.tenant = tenant
        # Its telemetry record (repro.obs.probe.Flight), hung here by the
        # first seam that needs one; None on a dark machine.
        self.flight = None

    @property
    def latency_us(self):
        if self.completed_at is None:
            return None
        return self.completed_at - self.sent_at

    def __repr__(self):
        return (
            f"<Request {self.rid} {type_name(self.rtype)} "
            f"service={self.service_us:.1f}us user={self.user_id}>"
        )
