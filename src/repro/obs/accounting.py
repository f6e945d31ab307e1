"""Per-tenant resource accounting: who consumed what, at which layer.

Every metric, sketch and span in the base observability tiers is
*aggregate* — fine for one application, useless for auditing the paper's
isolation claim when several untrusting tenants share a machine.  The
:class:`TenantAccountant` closes that gap: it rides the same datapath
seams as the span tracer (NIC arrival/IRQ delivery, softirq begin/end,
socket enqueue/pop, qdisc offer/take, thread wake/service) and books
every microsecond into the responsible tenant's :class:`TenantLedger`:

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
accountant: every seam returns before touching any structure, so a
live accountant over a tenant-less run books nothing.  A tagged request
is resolved **once**: the first seam that sees it (``nic_arrival`` on
the ordinary path) opens one slotted flight record holding the tenant,
its ledger and the open queueing stamps, every later seam finds that
record with one dict probe on the request object, and
``socket_dequeued`` or ``drop`` closes it.

Cross-tenant *attribution* is delegated to the companion module: each
softirq/socket queueing span also snapshots which tenants' work was
ahead in that queue at enqueue time, and on dequeue the measured wait
is charged to them pro rata in a pairwise
:class:`repro.obs.interference.BlameMatrix` ("tenant A imposed X µs on
tenant B at the socket layer").  See docs/multitenancy.md for the math.

Off is ``None``: machines built without ``accounting=True`` hold no
accountant (``obs.acct is None``), the machine's :mod:`repro.obs.probe`
resolves the accountant's seams to no-ops, zero accounting objects are
allocated, and simulation output stays bit-identical — the audit
test in ``tests/test_accounting.py`` holds this line.  The accountant
itself only ever *reads* the datapath (timestamps, queue mirrors), so
enabling it changes no scheduling decision either: a run with
accounting on is bit-identical to the same run with it off.
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

    def charge_wait(self, layer, us):
        self.wait_us[layer] += us
        self.wait_events[layer] += 1

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


class _Flight:
    """One tenant-tagged request between its first seam and its last.

    The tenant and its ledger are resolved once, when the record opens;
    a stamp is the enqueue time of a queueing span that is open now
    (``None`` when it is not), and ``*_ahead`` / ``*_mirror`` are only
    meaningful while their stamp is set.
    """

    __slots__ = ("tenant", "ledger", "nic", "qdisc",
                 "softirq", "softirq_ahead", "softirq_mirror",
                 "socket", "socket_ahead", "socket_mirror")

    def __init__(self, tenant, ledger):
        self.tenant = tenant
        self.ledger = ledger
        self.nic = self.qdisc = self.softirq = self.socket = None


class TenantAccountant:
    """Live per-tenant cost ledgers + blame feed over the span seams.

    In-flight state is one :class:`_Flight` per request, keyed by the
    request *object*, never by rid — rids restart at zero per generator,
    and a multi-tenant machine runs one generator per tenant.  The
    record opens at ``nic_arrival`` (or at the first seam that sees the
    request, for packets injected past the NIC) and closes at
    ``socket_dequeued`` or ``drop``; every seam in between is one dict
    probe, and the dict holds the request alive until then.
    """

    def __init__(self, clock):
        self._clock = clock         # anything with ``.now`` (the engine)
        self.ledgers = {}           # tenant -> TenantLedger
        self.blame = BlameMatrix()
        self._flights = {}          # request -> _Flight
        # Occupancy mirrors for blame snapshots: who is in each queue
        # right now, with the weight their presence imposes on arrivals.
        self._cores = {}            # core_index -> {request: tenant}
        self._sockq = {}            # sid -> {request: (tenant, weight)}
        # Thread-layer state: wake timestamps (runqueue wait) and the
        # item cost captured at service begin (charged at completion).
        self._wakes = {}            # tid -> ts
        self._service = {}          # tid -> (tenant, cost_us)

    # ------------------------------------------------------------------
    def ledger(self, tenant):
        led = self.ledgers.get(tenant)
        if led is None:
            led = self.ledgers[tenant] = TenantLedger(tenant)
        return led

    def _open(self, request):
        """Open the flight record of a request no seam has seen yet;
        ``None`` for traffic that carries no tenant."""
        if request is None or request.tenant is None:
            return None
        tenant = request.tenant
        flight = self._flights[request] = _Flight(
            tenant, self.ledgers.get(tenant) or self.ledger(tenant))
        return flight

    def book_core_occupancy(self, tenant, us):
        """Credit ``us`` of held-core time to ``tenant`` (the arbiter
        calls this when an occupancy segment closes)."""
        if tenant is None or us <= 0.0:
            return
        self.ledger(tenant).core_occupancy_us += us

    def _charge_blame(self, victim, layer, wait_us, ahead):
        """Split a measured wait across the tenants whose work was ahead
        at enqueue time, pro rata by weight (self-queueing charges the
        diagonal)."""
        if wait_us <= 0.0 or not ahead:
            return
        total = 0.0
        for weight in ahead.values():
            total += weight
        if total <= 0.0:
            return
        scale = wait_us / total
        cells = self.blame._cells
        for aggressor, weight in ahead.items():
            # BlameMatrix.charge, written out
            us = weight * scale
            if us <= 0.0:
                continue
            key = (victim, aggressor, layer)
            cells[key] = cells.get(key, 0.0) + us

    # The packet seams below charge waits inline — the two statements of
    # TenantLedger.charge_wait — so each costs one frame per request.

    # -- NIC ------------------------------------------------------------
    def nic_arrival(self, packet):
        request = packet.request
        flight = self._flights.get(request) or self._open(request)
        if flight is not None:
            flight.nic = self._clock.now

    def nic_delivered(self, packet, queue):
        flight = self._flights.get(packet.request)
        if flight is None or flight.nic is None:
            return
        ledger = flight.ledger
        ledger.wait_us["nic"] += self._clock.now - flight.nic
        ledger.wait_events["nic"] += 1
        flight.nic = None

    # -- softirq --------------------------------------------------------
    def softirq_begin(self, packet, core, depth):
        request = packet.request
        flight = self._flights.get(request) or self._open(request)
        if flight is None:
            return
        mirror = self._cores.setdefault(core, {})
        ahead = {}
        # Softirq work is near-uniform per packet: weight each occupant 1.
        for occupant in mirror.values():
            ahead[occupant] = ahead.get(occupant, 0.0) + 1.0
        flight.softirq = self._clock.now
        flight.softirq_ahead = ahead
        flight.softirq_mirror = mirror
        mirror[request] = flight.tenant

    def softirq_end(self, packet):
        request = packet.request
        flight = self._flights.get(request)
        if flight is None or flight.softirq is None:
            return
        flight.softirq_mirror.pop(request, None)
        wait = self._clock.now - flight.softirq
        flight.softirq = None
        ledger = flight.ledger
        ledger.wait_us["softirq"] += wait
        ledger.wait_events["softirq"] += 1
        if flight.softirq_ahead:    # nobody ahead: spare the frame
            self._charge_blame(flight.tenant, "softirq", wait,
                               flight.softirq_ahead)

    # -- socket backlog -------------------------------------------------
    def socket_enqueued(self, packet, socket, depth):
        request = packet.request
        flight = self._flights.get(request) or self._open(request)
        if flight is None:
            return
        mirror = self._sockq.setdefault(socket.sid, {})
        ahead = {}
        # Weight queued occupants by their service demand: that is the
        # CPU time the arrival must wait out before its own turn.
        for occupant, weight in mirror.values():
            ahead[occupant] = ahead.get(occupant, 0.0) + weight
        thread = socket.thread
        if thread is not None and thread.token is not None:
            in_service = getattr(thread.token, "tenant", None)
            if in_service is not None:
                ahead[in_service] = (
                    ahead.get(in_service, 0.0) + max(thread.remaining, 0.0)
                )
        flight.socket = self._clock.now
        flight.socket_ahead = ahead
        flight.socket_mirror = mirror
        mirror[request] = (flight.tenant, request.service_us)

    def socket_dequeued(self, packet, socket):
        request = packet.request
        flight = self._flights.pop(request, None)
        if flight is None or flight.socket is None:
            return
        flight.socket_mirror.pop(request, None)
        wait = self._clock.now - flight.socket
        ledger = flight.ledger
        ledger.wait_us["socket"] += wait
        ledger.wait_events["socket"] += 1
        if flight.socket_ahead:
            self._charge_blame(flight.tenant, "socket", wait,
                               flight.socket_ahead)

    # -- qdisc (sub-span of the surrounding nic/socket wait) ------------
    def qdisc_enqueued(self, packet, layer, rank, backend):
        request = packet.request
        flight = self._flights.get(request) or self._open(request)
        if flight is not None:
            flight.qdisc = self._clock.now

    def qdisc_dequeued(self, packet):
        flight = self._flights.get(packet.request)
        if flight is None or flight.qdisc is None:
            return
        ledger = flight.ledger
        ledger.wait_us["qdisc"] += self._clock.now - flight.qdisc
        ledger.wait_events["qdisc"] += 1
        flight.qdisc = None

    # -- thread layer ---------------------------------------------------
    def thread_runnable(self, thread):
        self._wakes[thread.tid] = self._clock.now

    def service_begin(self, thread, token):
        ts = self._wakes.pop(thread.tid, None)
        tenant = getattr(token, "tenant", None)
        if tenant is None:
            return
        if ts is not None:
            (self.ledgers.get(tenant) or self.ledger(tenant)).charge_wait(
                "runqueue", self._clock.now - ts
            )
        # Capture the item's modeled cost now; charge it at completion
        # so preemption/timeslicing never double-counts CPU time.
        self._service[thread.tid] = (tenant, thread.remaining)

    def service_end(self, thread, token):
        entry = self._service.pop(thread.tid, None)
        tenant = getattr(token, "tenant", None)
        if tenant is None:
            return
        led = self.ledgers.get(tenant) or self.ledger(tenant)
        led.completed += 1
        if entry is not None:
            led.cpu_service_us += entry[1]

    # -- hook dispatch --------------------------------------------------
    def policy_exec(self, packet, cost_us):
        if cost_us <= 0.0:
            return
        request = packet.request
        flight = self._flights.get(request) or self._open(request)
        if flight is not None:
            flight.ledger.policy_exec_us += cost_us

    # -- drops ----------------------------------------------------------
    def drop(self, packet, reason):
        request = packet.request
        flight = self._flights.get(request) or self._open(request)
        if flight is None:
            return
        del self._flights[request]
        drops = flight.ledger.drops
        drops[reason] = drops.get(reason, 0) + 1
        # Retire any open queueing span (a qdisc eviction removes an
        # element that is still mirrored in its socket's occupancy).
        if flight.softirq is not None:
            flight.softirq_mirror.pop(request, None)
        if flight.socket is not None:
            flight.socket_mirror.pop(request, None)

    # ------------------------------------------------------------------
    # Views / export
    # ------------------------------------------------------------------
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
