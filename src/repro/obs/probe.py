"""The instrumentation seam: one ``probe`` per machine, the one writer
into the span tracer and the tenant accountant.

Datapath components (NIC, netstack, sockets, thread schedulers, core
arbiter, hook sites, the fleet) report what happens to a packet, thread
or fleet request by calling one seam method on the probe they were
constructed with — ``self.probe.drop(packet, reason)``.  When no tier
listens there is no probe: ``Observability.probe`` is ``None``, and
every call site outside ``repro/obs/`` sits under ``if probe is not
None:`` (``tests/test_probe.py`` checks the guard).

:class:`Probe`'s public methods are the seam vocabulary.  Each seam is
one frame whichever tiers are live: it writes the span tracer's trees
and the accountant's ledgers itself, and the tiers keep only what their
views read.  A request carries its state for both tiers in one
:class:`Flight` (``request.flight``), opened by the first seam that
needs it.  To add a seam, define it here and call it, guarded, from the
datapath.
"""

from repro.obs.registry import ZERO_CLOCK

__all__ = ["Flight", "Probe"]


class Flight:
    """One request's state in both tiers, hung on it by the constructor.

    ``tree`` is the open span tree (``None``: unsampled or finished).
    ``tenant`` and its ``ledger`` are bound once, and only when the
    accountant is live and the request carries a tenant.  A stamp is the
    enqueue time of a queueing span open now; ``*_ahead`` / ``*_mirror``
    mean something only while their stamp is set.
    """

    __slots__ = ("tree", "tenant", "ledger", "nic", "qdisc",
                 "softirq", "softirq_ahead", "softirq_mirror",
                 "socket", "socket_ahead", "socket_mirror")

    def __init__(self, request, acct):
        tenant = None if acct is None else request.tenant
        self.tenant = tenant
        self.ledger = None if tenant is None else (
            acct.ledgers.get(tenant) or acct.ledger(tenant))
        self.tree = self.nic = self.qdisc = self.softirq = self.socket = None
        request.flight = self


class Probe:
    """Every seam, each one frame over whichever tiers are live; a helper
    frame is spent only on a sampled tree or a blame split."""

    __slots__ = ("clock", "spans", "acct", "_wakes", "_placements",
                 "_service", "_cores", "_sockq")

    def __init__(self, clock=None, spans=None, acct=None):
        self.clock = clock if clock is not None else ZERO_CLOCK
        self.spans = spans
        self.acct = acct
        # Thread-side state, consumed at service_begin: tid -> ts of the
        # wake that made the thread RUNNABLE, tid -> (ts, core) of an
        # in-flight ghOSt commit (spans), and tid -> (tenant, cost_us)
        # captured at service begin and charged at completion (acct).
        self._wakes = {}
        self._placements = {}
        self._service = {}
        # Occupancy mirrors for blame snapshots: who is in each queue
        # right now, with the weight their presence imposes on arrivals.
        self._cores = {}            # core_index -> {request: tenant}
        self._sockq = {}            # sid -> {request: (tenant, weight)}

    # ------------------------------------------------------------------
    # Span-tree bookkeeping (sampled requests only)
    # ------------------------------------------------------------------
    def _begin(self, request):
        """Open a sampled request's tree (``_open`` is deleted by
        :meth:`_finalize`)."""
        self.spans.sampled += 1
        tree = {
            "rid": request.rid,
            "rtype": request.rtype,
            "start": self.clock.now,
            "end": None,
            "complete": False,
            "abort_reason": None,
            "spans": [],
            "_open": {},
        }
        (request.flight or Flight(request, self.acct)).tree = tree
        return tree

    def _open(self, tree, name, start, **attrs):
        span = {"name": name, "start": start, "end": None}
        if attrs:
            span["attrs"] = attrs
        tree["spans"].append(span)
        tree["_open"][name] = span

    def _close(self, tree, name, end, **attrs):
        span = tree["_open"].pop(name, None)
        if span is None:
            return
        span["end"] = end
        if attrs:
            span.setdefault("attrs", {}).update(attrs)

    def _add(self, tree, name, start, end, **attrs):
        span = {"name": name, "start": start, "end": end}
        if attrs:
            span["attrs"] = attrs
        tree["spans"].append(span)

    def _finalize(self, flight, complete, reason=None):
        """End the flight's tree, and every span still open in it, now."""
        tree = flight.tree
        flight.tree = None
        now = self.clock.now
        for span in tree.pop("_open").values():
            span["end"] = now
        tree["end"] = now
        tree["complete"] = complete
        if reason is not None:
            tree["abort_reason"] = reason
        spans = self.spans
        spans._done.append(tree)
        if complete:
            spans.completed_count += 1
        else:
            spans.aborted_count += 1

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
        cells = self.acct.blame._cells
        for aggressor, weight in ahead.items():
            # BlameMatrix.charge, written out
            us = weight * scale
            if us <= 0.0:
                continue
            key = (victim, aggressor, layer)
            cells[key] = cells.get(key, 0.0) + us

    # The seams below charge a wait inline (its ledger's wait_us and
    # wait_events), so each costs one frame per request.

    # ------------------------------------------------------------------
    # NIC (repro.net.nic)
    # ------------------------------------------------------------------
    def nic_arrival(self, packet):
        """Head-sampling point: every Nth request-bearing packet."""
        request = packet.request
        if request is None:
            return
        spans = self.spans
        if spans is not None:
            spans.seen += 1
            if not (spans.seen - 1) % spans.sample_every:
                flight = request.flight
                # a retransmit of a request already sampled keeps its tree
                if flight is None or flight.tree is None:
                    tree = self._begin(request)
                    self._open(tree, "nic_queue", tree["start"])
        acct = self.acct
        if acct is not None and request.tenant is not None:
            (request.flight or Flight(request, acct)).nic = self.clock.now

    def nic_delivered(self, packet, queue):
        request = packet.request
        flight = request.flight if request is not None else None
        if flight is None:
            return
        if flight.nic is not None:
            ledger = flight.ledger
            ledger.wait_us["nic"] += self.clock.now - flight.nic
            ledger.wait_events["nic"] += 1
            flight.nic = None
        if flight.tree is not None:
            self._close(flight.tree, "nic_queue", self.clock.now, queue=queue)

    # ------------------------------------------------------------------
    # Hook sites (repro.core.hooks)
    # ------------------------------------------------------------------
    def decision(self, packet, hook, outcome, value, fd, seq):
        """A policy decided this packet's fate: a zero-duration span
        linked to the decision event (``seq``) and the deployed ``fd``."""
        request = packet.request
        flight = request.flight if request is not None else None
        if flight is None or flight.tree is None:
            return
        now = self.clock.now
        attrs = {"outcome": outcome}
        if value is not None:
            attrs["value"] = value
        if fd is not None:
            attrs["fd"] = fd
        if seq is not None:
            attrs["seq"] = seq
        # _add, written out: a sampled tree's decisions cost no extra frame
        flight.tree["spans"].append({"name": f"decision:{hook}",
                                     "start": now, "end": now,
                                     "attrs": attrs})

    def policy_exec(self, packet, cost_us):
        """Bill a tenant its own policy's execution time."""
        acct = self.acct
        if acct is None or cost_us <= 0.0:
            return
        request = packet.request
        if request is not None and request.tenant is not None:
            ledger = (request.flight or Flight(request, acct)).ledger
            ledger.policy_exec_us += cost_us

    # ------------------------------------------------------------------
    # Kernel receive path (repro.kernel.netstack / sockets)
    # ------------------------------------------------------------------
    def softirq_begin(self, packet, core, depth):
        request = packet.request
        if request is None:
            return
        flight = request.flight
        acct = self.acct
        if acct is not None and request.tenant is not None:
            flight = flight or Flight(request, acct)
            mirror = self._cores.setdefault(core, {})
            ahead = {}
            # Softirq work is near-uniform per packet: weight each occupant 1.
            for occupant in mirror.values():
                ahead[occupant] = ahead.get(occupant, 0.0) + 1.0
            flight.softirq = self.clock.now
            flight.softirq_ahead = ahead
            flight.softirq_mirror = mirror
            mirror[request] = flight.tenant
        if flight is not None and flight.tree is not None:
            self._open(flight.tree, "softirq", self.clock.now, core=core,
                       depth=depth)

    def softirq_end(self, packet):
        request = packet.request
        flight = request.flight if request is not None else None
        if flight is None:
            return
        if flight.softirq is not None:
            flight.softirq_mirror.pop(request, None)
            wait = self.clock.now - flight.softirq
            flight.softirq = None
            ledger = flight.ledger
            ledger.wait_us["softirq"] += wait
            ledger.wait_events["softirq"] += 1
            if flight.softirq_ahead:    # nobody ahead: spare the frame
                self._charge_blame(flight.tenant, "softirq", wait,
                                   flight.softirq_ahead)
        if flight.tree is not None:
            self._close(flight.tree, "softirq", self.clock.now)

    def socket_enqueued(self, packet, socket, depth):
        """Datagram landed in a socket backlog ``depth`` entries deep."""
        request = packet.request
        if request is None:
            return
        flight = request.flight
        acct = self.acct
        if acct is not None and request.tenant is not None:
            flight = flight or Flight(request, acct)
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
            flight.socket = self.clock.now
            flight.socket_ahead = ahead
            flight.socket_mirror = mirror
            mirror[request] = (flight.tenant, request.service_us)
        if flight is not None and flight.tree is not None:
            self._open(flight.tree, "socket_wait", self.clock.now,
                       sid=socket.sid, depth=depth)

    def socket_dequeued(self, packet, socket):
        """A worker pulled the datagram: the accounting half closes."""
        request = packet.request
        flight = request.flight if request is not None else None
        if flight is None:
            return
        stamp = flight.socket
        flight.nic = flight.qdisc = flight.softirq = flight.socket = None
        if stamp is None:
            return
        flight.socket_mirror.pop(request, None)
        wait = self.clock.now - stamp
        ledger = flight.ledger
        ledger.wait_us["socket"] += wait
        ledger.wait_events["socket"] += 1
        if flight.socket_ahead:
            self._charge_blame(flight.tenant, "socket", wait,
                               flight.socket_ahead)

    def drop(self, packet, reason):
        """The stack dropped this packet: its tree ends incomplete, its
        tenant is billed the drop, and the accounting half closes."""
        request = packet.request
        if request is None:
            return
        flight = request.flight
        if flight is not None and flight.tree is not None:
            self._finalize(flight, False, reason)
        acct = self.acct
        if acct is None or request.tenant is None:
            return
        flight = flight or Flight(request, acct)
        drops = flight.ledger.drops
        drops[reason] = drops.get(reason, 0) + 1
        # Retire any open queueing span (a qdisc eviction removes an
        # element that is still mirrored in its socket's occupancy).
        if flight.softirq is not None:
            flight.softirq_mirror.pop(request, None)
        if flight.socket is not None:
            flight.socket_mirror.pop(request, None)
        flight.nic = flight.qdisc = flight.softirq = flight.socket = None

    # ------------------------------------------------------------------
    # Queueing disciplines (repro.qdisc): a sub-span of the surrounding
    # nic or socket wait
    # ------------------------------------------------------------------
    def qdisc_enqueued(self, packet, layer, rank, backend):
        """A qdisc accepted this packet with ``rank``.  The NIC- and
        socket-layer waits never overlap: one span name suffices."""
        request = packet.request
        if request is None:
            return
        flight = request.flight
        acct = self.acct
        if acct is not None and request.tenant is not None:
            flight = flight or Flight(request, acct)
            flight.qdisc = self.clock.now
        if flight is not None and flight.tree is not None:
            self._open(flight.tree, "qdisc_wait", self.clock.now, layer=layer,
                       rank=rank, backend=backend)

    def qdisc_dequeued(self, packet):
        """The qdisc released this packet in rank order."""
        request = packet.request
        flight = request.flight if request is not None else None
        if flight is None:
            return
        if flight.qdisc is not None:
            ledger = flight.ledger
            ledger.wait_us["qdisc"] += self.clock.now - flight.qdisc
            ledger.wait_events["qdisc"] += 1
            flight.qdisc = None
        if flight.tree is not None:
            self._close(flight.tree, "qdisc_wait", self.clock.now)

    # ------------------------------------------------------------------
    # Thread scheduling (repro.kernel.threads / cfs, repro.ghost)
    # ------------------------------------------------------------------
    def thread_runnable(self, thread):
        """A blocked thread went RUNNABLE (CFS/ghOSt wake)."""
        self._wakes[thread.tid] = self.clock.now

    def placement_begin(self, thread, core_id):
        """A ghOSt commit transaction is in flight for ``thread``."""
        if self.spans is not None:
            self._placements[thread.tid] = (self.clock.now, core_id)

    def placement_abort(self, thread):
        """The transaction aborted; discard the pending placement."""
        self._placements.pop(thread.tid, None)

    def service_begin(self, thread, token):
        """``thread`` pulled a work item; close the wait-side spans."""
        tid = thread.tid
        wake_ts = self._wakes.pop(tid, None)
        placement = self._placements.pop(tid, None)
        now = self.clock.now
        acct = self.acct
        if acct is not None:
            tenant = getattr(token, "tenant", None)
            if tenant is not None:
                if wake_ts is not None:
                    ledger = acct.ledgers.get(tenant) or acct.ledger(tenant)
                    ledger.wait_us["runqueue"] += now - wake_ts
                    ledger.wait_events["runqueue"] += 1
                # Capture the item's modeled cost now; charge it at
                # completion so preemption never double-counts CPU time.
                self._service[tid] = (tenant, thread.remaining)
        flight = getattr(token, "flight", None)
        if flight is None or flight.tree is None:
            return
        tree = flight.tree
        self._close(tree, "socket_wait", now)
        if wake_ts is not None:
            wait_end = placement[0] if placement is not None else now
            self._add(tree, "runqueue_wait", wake_ts, max(wake_ts, wait_end))
        if placement is not None:
            self._add(tree, "placement", placement[0], now,
                      core=placement[1])
        self._open(tree, "service", now, thread=thread.name)

    def service_end(self, thread, token):
        """Finalizing the tree ends its open ``service`` span."""
        acct = self.acct
        if acct is not None:
            entry = self._service.pop(thread.tid, None)
            tenant = getattr(token, "tenant", None)
            if tenant is not None:
                ledger = acct.ledgers.get(tenant) or acct.ledger(tenant)
                ledger.completed += 1
                if entry is not None:
                    ledger.cpu_service_us += entry[1]
        flight = getattr(token, "flight", None)
        if flight is not None and flight.tree is not None:
            self._finalize(flight, True)

    # ------------------------------------------------------------------
    # Elastic cores (repro.kernel.arbiter)
    # ------------------------------------------------------------------
    def book_core_occupancy(self, tenant, us):
        """Credit ``us`` of held-core time to ``tenant`` (the arbiter
        calls this when an occupancy segment closes)."""
        acct = self.acct
        if acct is not None and tenant is not None and us > 0.0:
            acct.ledger(tenant).core_occupancy_us += us

    # ------------------------------------------------------------------
    # Fleet tier (repro.cluster.fleet): one seam per request event, and
    # one per rare path (dead machine, held response, failover, drop)
    # ------------------------------------------------------------------
    def switch_steer(self, request, machine, policy, resteer):
        """The ToR steered the request to ``machine`` (None: shed).  A
        first steer is the fleet's head-sampling point; a steer adds a
        zero-duration span (policy name, ``resteer`` on failover) and
        opens the request's ``xnet_wait``."""
        spans = self.spans
        if spans is None:
            return
        if not resteer:
            spans.seen += 1
            if not (spans.seen - 1) % spans.sample_every:
                self._begin(request)
        flight = request.flight
        if flight is None or flight.tree is None or machine is None:
            return
        tree = flight.tree
        now = self.clock.now
        attrs = {"machine": machine,
                 "policy": getattr(policy, "name", "custom")}
        if resteer:
            attrs["resteer"] = True
        self._add(tree, "switch_steer", now, now, **attrs)
        self._open(tree, "xnet_wait", now, direction="request",
                   machine=machine)

    def xnet_begin(self, request, machine):
        """A response held behind a dead link went onto the rack wire."""
        flight = request.flight
        if flight is not None and flight.tree is not None:
            self._open(flight.tree, "xnet_wait", self.clock.now,
                       direction="response", machine=machine)

    def xnet_end(self, request):
        """The request reached a dead machine; close its ``xnet_wait``."""
        flight = request.flight
        if flight is not None and flight.tree is not None:
            self._close(flight.tree, "xnet_wait", self.clock.now)

    def machine_enqueued(self, request, machine, depth):
        """The request joined a busy fleet machine's queue ``depth`` deep."""
        flight = request.flight
        if flight is None or flight.tree is None:
            return
        now = self.clock.now
        self._close(flight.tree, "xnet_wait", now)
        self._open(flight.tree, "machine_queue", now, machine=machine,
                   depth=depth)

    def machine_requeued(self, request):
        """A failover re-steer: close the orphaned ``machine_queue`` or
        ``service`` span so the new attempt gets fresh ones."""
        flight = request.flight
        if flight is None or flight.tree is None:
            return
        now = self.clock.now
        self._close(flight.tree, "machine_queue", now, orphaned=True)
        self._close(flight.tree, "service", now, orphaned=True)

    def fleet_service_begin(self, request, machine):
        """Service starts, straight off the wire or out of the queue."""
        flight = request.flight
        if flight is None or flight.tree is None:
            return
        now = self.clock.now
        self._close(flight.tree, "xnet_wait", now)
        self._close(flight.tree, "machine_queue", now)
        self._open(flight.tree, "service", now, machine=machine)

    def fleet_service_end(self, request, machine):
        """Service finished; the response leaves ``machine`` (None: held)."""
        flight = request.flight
        if flight is None or flight.tree is None:
            return
        now = self.clock.now
        self._close(flight.tree, "service", now)
        if machine is not None:
            self._open(flight.tree, "xnet_wait", now, direction="response",
                       machine=machine)

    def fleet_complete(self, request):
        """The response reached the client; the tree is complete."""
        flight = request.flight
        if flight is not None and flight.tree is not None:
            self._finalize(flight, True)

    def fleet_drop(self, request, reason):
        """The fleet shed this request; the tree ends incomplete."""
        flight = request.flight
        if flight is not None and flight.tree is not None:
            self._finalize(flight, False, reason)
