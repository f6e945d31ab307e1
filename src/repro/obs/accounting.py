"""Per-tenant resource accounting: who consumed what, at which layer.

Every metric, sketch and span in the base observability tiers is
*aggregate* — fine for one application, useless for auditing the paper's
isolation claim when several untrusting tenants share a machine.  The
:class:`TenantAccountant` closes that gap: the probe
(:class:`repro.obs.probe.Probe`) books what the datapath seams report
(NIC arrival/IRQ delivery, softirq begin/end, socket enqueue/pop, qdisc
offer/take, thread wake/service) into the responsible tenant's
:class:`TenantLedger`:

- ``cpu_service_us`` — application CPU time (the modeled item cost,
  charged at completion so preemption never double-counts),
- ``policy_exec_us`` — the tenant's *own* policy execution time charged
  by the hook sites (the Syrup overhead each tenant pays for itself),
- per-layer queueing delay (``nic`` / ``softirq`` / ``socket`` /
  ``qdisc`` / ``runqueue``) with event counts, and
- ``drops`` by reason plus ``completed`` items.

Tenancy is carried by ``Request.tenant`` (a short string stamped by the
load generator, or propagated down from the ToR's per-port owners at
fleet scale).  Requests without a tenant are invisible to the
accountant: every seam skips its accounting half before touching any
structure, so a live accountant over a tenant-less run books nothing.
A tagged request is resolved **once**: the first seam that sees it
(``nic_arrival`` on the ordinary path) binds the tenant and its ledger
into the request's flight record (:class:`repro.obs.probe.Flight`,
``request.flight``), which also holds the open queueing stamps; every
later seam reads that record off the request, and ``socket_dequeued``
or ``drop`` closes its accounting half.

Cross-tenant *attribution* is delegated to the companion module: each
softirq/socket queueing span also snapshots which tenants' work was
ahead in that queue at enqueue time, and on dequeue the measured wait
is charged to them pro rata in a pairwise
:class:`repro.obs.interference.BlameMatrix` ("tenant A imposed X µs on
tenant B at the socket layer").  See docs/multitenancy.md for the math.

Off is ``None``: machines built without ``accounting=True`` hold no
accountant (``obs.acct is None``), the probe skips every accounting
half, zero accounting objects are allocated, and simulation output
stays bit-identical — the audit test in ``tests/test_accounting.py``
holds this line.  Accounting only ever *reads* the datapath
(timestamps, queue mirrors), so enabling it changes no scheduling
decision either: a run with accounting on is bit-identical to the same
run with it off.
"""

from repro.obs.interference import BlameMatrix

__all__ = [
    "LAYERS",
    "TenantAccountant",
    "TenantLedger",
]

#: Queueing layers a ledger itemizes, in datapath order.  ``qdisc`` is
#: the time inside a programmable discipline's buffer and *overlaps* the
#: surrounding nic/socket wait (it is a sub-span, not an addend).
LAYERS = ("nic", "softirq", "socket", "qdisc", "runqueue")


class TenantLedger:
    """One tenant's resource consumption on one machine."""

    __slots__ = ("tenant", "cpu_service_us", "policy_exec_us", "completed",
                 "wait_us", "wait_events", "drops", "core_occupancy_us")

    def __init__(self, tenant):
        self.tenant = tenant
        self.cpu_service_us = 0.0
        self.policy_exec_us = 0.0
        self.completed = 0
        self.wait_us = {layer: 0.0 for layer in LAYERS}
        self.wait_events = {layer: 0 for layer in LAYERS}
        self.drops = {}  # reason -> count
        # Core-seconds held via elastic grants (repro.kernel.arbiter
        # books closed occupancy segments here); 0.0 without an arbiter.
        self.core_occupancy_us = 0.0

    def total_wait_us(self):
        """Additive queueing delay (qdisc excluded: it is a sub-span)."""
        return sum(
            us for layer, us in self.wait_us.items() if layer != "qdisc"
        )

    def total_drops(self):
        return sum(self.drops.values())

    def as_dict(self):
        """JSON-safe row (``syrupctl tenants --json`` / syrupd view)."""
        return {
            "tenant": self.tenant,
            "cpu_service_us": self.cpu_service_us,
            "policy_exec_us": self.policy_exec_us,
            "completed": self.completed,
            "wait_us": dict(self.wait_us),
            "wait_events": dict(self.wait_events),
            "drops": dict(sorted(self.drops.items())),
            "core_occupancy_us": self.core_occupancy_us,
        }

    def __repr__(self):
        return (
            f"<TenantLedger {self.tenant} cpu={self.cpu_service_us:.0f}us "
            f"wait={self.total_wait_us():.0f}us drops={self.total_drops()}>"
        )


class TenantAccountant:
    """Live per-tenant cost ledgers and the blame matrix, which
    :class:`~repro.obs.probe.Probe` books into."""

    def __init__(self):
        self.ledgers = {}           # tenant -> TenantLedger
        self.blame = BlameMatrix()

    def ledger(self, tenant):
        led = self.ledgers.get(tenant)
        if led is None:
            led = self.ledgers[tenant] = TenantLedger(tenant)
        return led

    def tenants(self):
        return sorted(self.ledgers)

    def snapshot(self):
        """JSON-safe document: ledgers + the pairwise blame matrix."""
        return {
            "tenants": [
                self.ledgers[name].as_dict() for name in sorted(self.ledgers)
            ],
            "blame": self.blame.matrix(),
        }

    def publish(self, registry):
        """Mirror ledger totals into registry gauges.

        Series are scoped ``tenant:<name>`` — the OpenMetrics exporter
        splits that into ``scope="tenant",tenant="<name>"`` labels (see
        repro.obs.export).  Pure reads; call at view/export time so the
        datapath never pays for string formatting.
        """
        for name in sorted(self.ledgers):
            led = self.ledgers[name]
            scope = f"tenant:{name}"
            registry.gauge("tenants", scope, "cpu_service_us").set(
                led.cpu_service_us
            )
            registry.gauge("tenants", scope, "policy_exec_us").set(
                led.policy_exec_us
            )
            registry.gauge("tenants", scope, "completed").set(led.completed)
            registry.gauge("tenants", scope, "drops").set(led.total_drops())
            for layer in LAYERS:
                registry.gauge("tenants", scope, f"{layer}_wait_us").set(
                    led.wait_us[layer]
                )
            registry.gauge("tenants", scope, "imposed_us").set(
                self.blame.imposed_by(name)
            )
            registry.gauge("tenants", scope, "suffered_us").set(
                self.blame.suffered_by(name)
            )

    def __repr__(self):
        return f"<TenantAccountant tenants={len(self.ledgers)}>"
