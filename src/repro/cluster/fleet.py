"""The fleet tier: 100s of machines, millions of users, one ToR switch.

:mod:`repro.cluster.cluster` co-simulates a handful of *full* Machines —
NICs, softirq cores, sockets, policy hooks — behind this module's
:class:`TorSwitch`, which is the right fidelity for rack-policy
microbenchmarks and far too expensive for rack *scale*.
This module is the aggregate tier: each server is a
:class:`FleetMachine` (a queue plus ``workers`` service slots), each
request a :class:`FleetRequest` (a few slots — itself the
:class:`~repro.net.packet.PacketView` deployed programs read, no packet
bytes unless one peeks), and each user a sampled id out of ``num_users``
rather than an object.  That keeps a 100-machine,
million-user diurnal run within a few hundred thousand engine events —
``figure_fleet`` territory — while preserving the pieces the paper's
§6.1 extension actually argues about:

- the **ToR switch** (:class:`TorSwitch`) steers every request through a
  user-defined policy (:mod:`repro.cluster.steering`), including
  verified Syrup programs deployed into the network;
- steering reads **replicated** load state kept fresh by a
  :class:`~repro.cluster.sync.MapSyncBus` — bounded staleness, not
  omniscience;
- whole-machine and link failures come from the standard
  :class:`~repro.faults.FaultPlan` (``machine_kill`` / ``link_down``)
  and the switch *fails over*: orphaned requests re-steer to live
  machines once detection fires (at-least-once semantics);
- per-machine :class:`~repro.qdisc.discipline.Qdisc` ordering composes
  with switch steering (``qdisc_factory``), so a rack can run
  shortest-expected-delay at the ToR and SRPT at each host;
- the whole run is observable, through one probe seam per request
  event: ``switch_steer``/``xnet_wait``/``machine_queue`` spans, fleet
  counters, and a flight-recorder probe publishing per-machine load and
  replica staleness over sim time.

Determinism: arrivals, service draws, steering randomness and fault
timing all pull from named :class:`~repro.sim.rng.RngStreams`; the sync
bus and recorder only read.  Two fleets built with the same arguments
produce bit-identical latency distributions (tests/test_fleet.py).
"""

from repro.cluster.steering import (
    STEERING_FACTORIES,
    FlowHashSteering,
    ShadowSteering,
    SwitchProgramSteering,
)
from repro.cluster.sync import MapSyncBus
from repro.constants import DROP
from repro.ebpf import ArrayMap, compile_policy, load_program
from repro.faults import FaultKind
from repro.net.packet import PacketView
from repro.obs import Observability
from repro.obs.sketch import DDSketch
from repro.obs.timeseries import DEFAULT_INTERVAL_US, FlightRecorder
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.stats import LatencyRecorder
from repro.workload.mixes import RequestMix
from repro.workload.requests import GET, SCAN, TYPE_NAMES, type_name

__all__ = [
    "FLEET_MIX",
    "Fleet",
    "FleetFaultInjector",
    "FleetGenerator",
    "FleetMachine",
    "FleetRequest",
    "TorSwitch",
]

import math
from collections import deque
from functools import cached_property
from heapq import heapify, heappop, heappush, heapreplace

#: Default fleet workload: mostly short GETs with a heavy SCAN tail —
#: the shape that separates load-aware steering from hashing.
FLEET_MIX = RequestMix("fleet", [
    (GET, 0.90, (150.0, 250.0)),
    (SCAN, 0.10, (600.0, 1000.0)),
])

DEFAULT_WIRE_US = 5.0
DEFAULT_FORWARD_US = 1.0
DEFAULT_FAILOVER_DETECT_US = 500.0


class FleetRequest(PacketView):
    """One aggregate-flow request: slots only, and itself the packet
    facade programs read — wire bytes built on the first ``load``."""

    __slots__ = ("service_us", "sent_at", "machine", "attempts",
                 "completed_at", "cohort", "tenant", "flight", "arrival")

    def __init__(self, rid, rtype, service_us, user_id=0, sent_at=0.0,
                 dst_port=0, tenant=None):
        self._data = None
        self.src_port = self.key_hash = 0
        self.rid = rid
        self.rtype = rtype
        self.user_id = user_id
        self.service_us = service_us
        self.sent_at = sent_at
        self.dst_port = dst_port
        self.machine = None       # current steering target
        self.attempts = 0         # steer count (>1 means failover re-steer)
        self.completed_at = None
        self.cohort = None        # canary-split bucket, stamped once
        # Owning tenant: stamped at admission from the ToR's per-port
        # rule owner (TorSwitch.install(port, policy, owner=...)) so the
        # switch's tenant identity propagates down the stack — the fleet
        # half of per-tenant accounting (repro.obs.accounting).
        self.tenant = tenant
        self.flight = None        # telemetry record (repro.obs.probe)
        self.arrival = None       # at its machine, once scheduled there

    @property
    def latency_us(self):
        if self.completed_at is None:
            return None
        return self.completed_at - self.sent_at

    def __repr__(self):
        return (
            f"<FleetRequest rid={self.rid} {type_name(self.rtype)} "
            f"user={self.user_id} machine={self.machine}>"
        )


class FleetMachine:
    """An aggregate rack server: ``workers`` service slots + one queue.

    The queue is a plain FIFO deque unless the fleet's ``qdisc_factory``
    supplies a :class:`~repro.qdisc.discipline.Qdisc` — then requests
    are ranked by the deployed program (reading the request as its own
    ``PacketView``), composing per-host ordering with ToR steering.

    On a fleet that schedules at steer time (``Fleet._direct``) there is
    no queue: a request's service is fixed when it is scheduled, by the
    FIFO multi-server recursion over the workers' free times
    (``_free``, a heap), its completion is deferred (``Fleet._deferred``)
    rather than posted, and ``_in_service`` holds every request
    scheduled here and not yet retired — on the wire, queued or in
    service, in arrival order.  ``busy``, ``queue_depth()`` and
    ``load()`` retire what is due and read off that schedule.
    """

    __slots__ = ("index", "fleet", "workers", "queue_cap", "qdisc",
                 "_queue", "alive", "link_up", "served", "epoch",
                 "orphans", "_in_service", "_held_responses", "_free",
                 "_inflight")

    def __init__(self, index, fleet, workers, queue_cap=None, qdisc=None):
        self.index = index
        self.fleet = fleet
        self.workers = workers
        self.queue_cap = queue_cap
        self.qdisc = qdisc
        self._queue = deque() if qdisc is None else qdisc  # len() = depth
        self.alive = True
        self.link_up = True
        self.served = 0
        self.epoch = 0                # bumped by kill(): completions go stale
        self.orphans = []             # requests stranded by a kill
        self._in_service = {}         # request -> itself, in start order
        #                               (arrival order when ``_direct``)
        self._held_responses = []     # responses stuck behind a dead link
        self._free = [0.0] * workers  # each worker's free time (a heap)
        self._inflight = 0            # _land events not yet dispatched

    # ------------------------------------------------------------------
    def load(self):
        """Ground truth: queued + in-service (what the sync bus snapshots)."""
        fleet = self.fleet
        if not fleet._direct:
            return len(self._queue) + len(self._in_service)
        fleet._retire()
        # Requests still on the wire are scheduled but not here yet.  One
        # arriving this instant is too inside a callback (a tick at it
        # runs first), not once the run has returned (it has landed).
        engine, index = fleet.engine, self.index
        now = engine.now
        if engine.dispatching == math.inf:
            return len(self._in_service) - sum(
                1 for r in fleet._wire if r.machine == index and r.arrival > now)
        return len(self._in_service) - sum(
            1 for r in fleet._wire if r.machine == index and r.arrival >= now)

    @property
    def busy(self):
        if self.fleet._direct:
            # FIFO and work-conserving: no worker idles while one waits
            return min(self.workers, self.load())
        return len(self._in_service)

    def queue_depth(self):
        if self.fleet._direct:
            return max(0, self.load() - self.workers)
        return len(self._queue)

    # ------------------------------------------------------------------
    def receive(self, request):
        """A steered request arrives off the rack wire."""
        fleet = self.fleet
        if not self.alive:
            # Arrived at a corpse.  Before failover detection the switch
            # doesn't know yet: strand the request with the other
            # orphans.  After detection, re-steer immediately.
            if fleet.probe is not None:
                fleet.probe.xnet_end(request)
            if fleet.switch.is_alive(self.index):
                self.orphans.append(request)
            else:
                fleet.resteer(request)
            return
        if fleet._direct:
            self._schedule(request, fleet.engine.now)
            return
        if len(self._in_service) < self.workers:
            self._begin_service(request)
            return
        depth = len(self._queue)
        if self.qdisc is not None:
            result = self.qdisc.offer(request, capacity=self.queue_cap,
                                      ctx=request)
            if result.evicted is not None:
                fleet.drop(result.evicted, "qdisc_evict")
            if not result.accepted:
                fleet.drop(request, result.reason or "qdisc_drop")
                return
        else:
            if self.queue_cap is not None and depth >= self.queue_cap:
                fleet.drop(request, "overflow")
                return
            self._queue.append(request)
        if fleet.probe is not None:
            fleet.probe.machine_enqueued(request, self.index, depth)

    def _land(self, request):
        """A scheduling fleet's arrival event: ``receive``, counted out of
        the in-flight events that keep later steers on this path."""
        self._inflight -= 1
        self.receive(request)

    def _schedule(self, request, arrival):
        """Fix the request's service from its ``arrival``: it starts once
        it is here and the earliest-free worker is, and ends
        ``service_us`` later, where its completion is deferred now.
        ``Fleet._steer`` runs the same lines in its own frame."""
        free = self._free
        start = free[0]
        if arrival > start:
            start = arrival
        end = start + request.service_us
        heapreplace(free, end)
        request.arrival = arrival
        self._in_service[request] = request
        self.fleet._defer(end, self, request)

    def _begin_service(self, request):
        fleet = self.fleet
        if fleet.probe is not None:
            fleet.probe.fleet_service_begin(request, self.index)
        # A plain post: a kill() makes it stale (the epoch moves on)
        # rather than cancelling it.
        fleet.engine.post(request.service_us, self._complete_service,
                          request, self.epoch)
        self._in_service[request] = request

    def _complete_service(self, request, epoch):
        if epoch != self.epoch:
            return                  # served by a machine killed since
        fleet = self.fleet
        del self._in_service[request]
        self.served += 1
        if fleet.probe is not None:
            fleet.probe.fleet_service_end(
                request, self.index if self.link_up else None)
        # A worker is free: the next queued request.
        if self.qdisc is not None:
            nxt = self.qdisc.take()
            if nxt is not None:
                self._begin_service(nxt)
        elif self._queue:
            self._begin_service(self._queue.popleft())
        if not self.link_up:
            # Carrier is down; the finished response waits at the NIC.
            self._held_responses.append(request)
        elif fleet._dark:
            # The response crosses the rack wire: booked at its arrival.
            fleet._due = due = fleet.engine.now + fleet.wire_us
            fleet._book(request, due)
        else:
            fleet.engine.post(fleet.wire_us, fleet._complete, request)

    # ------------------------------------------------------------------
    def kill(self):
        """Whole-machine failure: strand everything here (requests still
        on the wire land later, at a corpse); the service completions
        still posted go stale, the deferred ones are dropped."""
        fleet = self.fleet
        fleet._retire()
        self.alive = False
        self.epoch += 1
        orphans = list(self._in_service.values())
        self._in_service.clear()
        if fleet._direct:
            orphans = self._unschedule(orphans)
        elif self.qdisc is not None:
            orphans.extend(self.qdisc.drain())
        else:
            orphans.extend(self._queue)
            self._queue.clear()
        self.orphans.extend(orphans)
        # Held responses die with the machine: booked, or never drained.
        for request in self._held_responses:
            fleet.drop(request, "held_response_lost")
        self._held_responses.clear()
        return orphans

    def _unschedule(self, scheduled):
        """Undo a kill's share of the schedule, as the event path would
        have it: requests still on the wire land by event, those here
        become orphans (in service first, then queued — arrival order,
        since FIFO starts them in it), and every completion deferred here
        is dropped (the event path's would be stale or never posted).
        Returns the orphans."""
        fleet = self.fleet
        engine = fleet.engine
        now = engine.now
        orphans = [r for r in scheduled if r.arrival < now]
        landing = [r for r in scheduled if r.arrival >= now]
        fleet._drop_deferred(self)
        for request in landing:
            self._inflight += 1
            engine.post_at(request.arrival, self._land, request)
        index = self.index
        fleet._wire = deque(r for r in fleet._wire if r.machine != index)
        # Every worker is free for whatever arrives after a restore.
        self._free = [now] * self.workers
        return orphans

    def restore(self):
        self.fleet._retire()
        self.alive = True

    def link_restore(self):
        """Carrier back: flush every response held behind the dead link."""
        fleet = self.fleet
        fleet._retire()
        self.link_up = True
        held, self._held_responses = self._held_responses, []
        if fleet._dark:
            fleet._due = due = fleet.engine.now + fleet.wire_us
            for request in held:
                fleet._book(request, due)
            return
        probe = fleet.probe
        for request in held:
            if probe is not None:
                probe.xnet_begin(request, self.index)
            fleet.engine.post(fleet.wire_us, fleet._complete, request)

    def __repr__(self):
        state = "up" if self.alive else "DEAD"
        return (
            f"<FleetMachine {self.index} {state} busy={self.busy} "
            f"queued={self.queue_depth()} served={self.served}>"
        )


class TorSwitch:
    """The rack's programmable top-of-rack switch (both tiers).

    Holds the steering state (``load_view``, ``delay_view``, and the
    ``machine_load_array`` Map that deployed programs read), the
    per-port tenant rules, and the liveness view.  A :class:`Fleet`
    refreshes the state from sync-bus *replicas*; a micro-rack
    :class:`~repro.cluster.cluster.Cluster` keeps ``load_view`` exact by
    counting requests out and responses back.  ``mark_down``/``mark_up``
    model what the switch can actually see: carrier loss is instant, a
    wedged machine takes ``failover_detect_us`` of silence to notice.
    """

    def __init__(self, num_machines, default=None):
        self.num_machines = num_machines
        self.default = default if default is not None else FlowHashSteering()
        #: Last-resort matcher when even the default PASSes (e.g. a
        #: deployed program installed as the default returns PASS).
        self.fallback = FlowHashSteering()
        self._port_rules = {}               # port -> (policy, owner)
        self.load_view = [0] * num_machines
        self.delay_view = [0.0] * num_machines
        self.load_map = ArrayMap("machine_load_array", num_machines)
        self.p99_view = [0] * num_machines
        self.p99_map = ArrayMap("machine_p99_array", num_machines)
        self._down = set()
        self._alive = list(range(num_machines))
        self.forwarded = [0] * num_machines
        self.dropped = 0
        self.resteers = 0

    # ------------------------------------------------------------------
    def install(self, port, policy, owner=None):
        """Per-port match/action rule (tenant isolation, §6.1)."""
        existing = self._port_rules.get(port)
        if existing is not None and owner is not None \
                and existing[1] is not None and existing[1] != owner:
            raise PermissionError(
                f"port {port} rule already owned by {existing[1]!r}"
            )
        self._port_rules[port] = (policy, owner)

    def policy_for(self, request):
        rule = self._port_rules.get(request.dst_port)
        return rule[0] if rule is not None else self.default

    # ------------------------------------------------------------------
    def alive_machines(self):
        return self._alive

    def is_alive(self, index):
        return index not in self._down

    def mark_down(self, index):
        self._down.add(index)
        self._alive = [i for i in range(self.num_machines)
                       if i not in self._down]

    def mark_up(self, index):
        self._down.discard(index)
        self._alive = [i for i in range(self.num_machines)
                       if i not in self._down]

    # ------------------------------------------------------------------
    def apply_load(self, loads, workers):
        """Sync-bus apply: refresh every replica from a snapshot."""
        self.load_view = loads
        self.delay_view = [load / workers[i] for i, load in enumerate(loads)]
        self.load_map.assign(loads)

    def apply_p99(self, p99s):
        """Sync-bus apply: refresh the per-machine tail-latency replica."""
        self.p99_view = p99s
        self.p99_map.assign(p99s)

    def pick(self, request):
        """Run the matching policy; returns a machine index or None (drop)."""
        policy = self.policy_for(request)
        index = policy.pick(request, self)
        if index is None and policy is not self.default:
            index = self.default.pick(request, self)
        if index is None:
            index = self.fallback.pick(request, self)
        if index is None or index == DROP:
            return None
        return index

    def __repr__(self):
        return (
            f"<TorSwitch machines={self.num_machines} "
            f"down={sorted(self._down)} dropped={self.dropped}>"
        )


class FleetGenerator:
    """Aggregate open-loop load: Poisson arrivals with diurnal modulation.

    Millions of users are *sampled* (``user_id = uniform(num_users)``),
    not instantiated.  The arrival rate follows
    ``rps * (1 - depth * 0.5 * (1 + cos(2*pi*t/period)))`` — a diurnal
    trough at t=0 rising to the full ``rps`` mid-period — degenerate to
    constant ``rps`` when ``diurnal_depth`` is 0.
    """

    def __init__(self, fleet, rps, duration_us, num_users=1_000_000,
                 mix=None, diurnal_period_us=None, diurnal_depth=0.0,
                 ports=None):
        if not 0.0 <= diurnal_depth < 1.0:
            raise ValueError(
                f"diurnal_depth must be in [0, 1), got {diurnal_depth}"
            )
        if num_users < 1:
            raise ValueError(f"need at least one user, got {num_users}")
        self.fleet = fleet
        self.rps = rps
        self.duration_us = duration_us
        self.num_users = num_users
        self.mix = mix if mix is not None else FLEET_MIX
        self.diurnal_period_us = diurnal_period_us
        self.diurnal_depth = diurnal_depth
        self._arrivals = fleet.streams.get("arrivals")
        self._service = fleet.streams.get("service")
        self._users = fleet.streams.get("users")
        self._user_bits = num_users.bit_length()
        # Multi-tenant traffic: each arrival's dst_port is drawn
        # uniformly from ``ports``, landing it on that port's ToR rule
        # (and its owner's tenant bill).  The draw uses its own named
        # stream so the default single-port workload — ports=None, no
        # stream ever created — is bit-identical with or without this
        # feature existing.
        self.ports = list(ports) if ports else None
        self._ports_rng = (fleet.streams.get("gen_ports")
                           if self.ports else None)
        self.offered = 0
        self.done = False
        self._started = False
        self._next_rid = 0

    def rate_per_us(self, now):
        rate = self.rps / 1e6
        if self.diurnal_period_us:
            rate *= 1.0 - self.diurnal_depth * 0.5 * (
                1.0 + math.cos(2.0 * math.pi * now / self.diurnal_period_us)
            )
        return rate

    def start(self):
        """Draw the first gap; each arrival then draws the next.  A
        second start would begin a second arrival chain, so it raises."""
        if self._started:
            raise RuntimeError("generator already started")
        self._started = True
        engine = self.fleet.engine
        rate = self.rate_per_us(engine.now)
        gap = self._arrivals.expovariate(rate) if rate > 0 \
            else self.duration_us
        self.done = engine.now + gap >= self.duration_us
        if not self.done:
            engine.post(gap, self._arrive)

    def _arrive(self):
        fleet = self.fleet
        engine = fleet.engine
        now = engine.now
        self._next_rid += 1
        rtype, service_us = self.mix.sample(self._service)
        # users.randrange(num_users): its rejection loop, in this frame
        draw, bits = self._users.getrandbits, self._user_bits
        user_id = draw(bits)
        while user_id >= self.num_users:
            user_id = draw(bits)
        request = FleetRequest(self._next_rid, rtype, service_us, user_id, now)
        if self.ports is not None:
            request.dst_port = self.ports[
                self._ports_rng.randrange(len(self.ports))
            ]
        self.offered += 1
        fleet.admit(request)
        # rate_per_us(now) and start()'s gap draw, in this frame
        rate = self.rps / 1e6
        if self.diurnal_period_us:
            rate *= 1.0 - self.diurnal_depth * 0.5 * (
                1.0 + math.cos(2.0 * math.pi * now / self.diurnal_period_us)
            )
        # arrivals.expovariate(rate), likewise
        gap = -math.log(1.0 - self._arrivals.random()) / rate if rate > 0 \
            else self.duration_us
        self.done = now + gap >= self.duration_us
        if not self.done:
            engine.post(gap, self._arrive)


class FleetFaultInjector:
    """Arms a :class:`~repro.faults.FaultPlan`'s fleet-scoped specs.

    The mirror image of :class:`repro.faults.FaultInjector`: that one
    skips ``machine_kill``/``link_down``, this one arms *only* them —
    the same plan object can drive a Machine and a Fleet.
    """

    def __init__(self, fleet, plan):
        self.fleet = fleet
        self.plan = plan
        self.injected = 0

    def arm(self):
        engine = self.fleet.engine
        for spec in self.plan.specs:
            if spec.kind == FaultKind.MACHINE_KILL:
                engine.post_at(spec.at_us, self._inject_kill, spec)
                if spec.restore_at_us is not None:
                    engine.post_at(spec.restore_at_us, self._inject_restore,
                                   spec)
            elif spec.kind == FaultKind.LINK_DOWN:
                engine.post_at(spec.at_us, self._inject_link_down, spec)
                engine.post_at(spec.at_us + spec.duration_us,
                               self._inject_link_restore, spec)
        return self

    def _inject_kill(self, spec):
        self._note(FaultKind.MACHINE_KILL, machine=spec.machine)
        self.fleet.kill_machine(spec.machine)

    def _inject_restore(self, spec):
        self._note(FaultKind.MACHINE_RESTORE, machine=spec.machine)
        self.fleet.restore_machine(spec.machine)

    def _inject_link_down(self, spec):
        self._note(FaultKind.LINK_DOWN, machine=spec.machine,
                   duration_us=spec.duration_us)
        self.fleet.link_down(spec.machine)

    def _inject_link_restore(self, spec):
        self._note(FaultKind.LINK_RESTORE, machine=spec.machine)
        self.fleet.link_restore(spec.machine)

    def _note(self, kind, **fields):
        self.injected += 1
        registry, events = self.fleet.obs.registry, self.fleet.obs.events
        if registry is not None:
            registry.counter("fleet", "faults", kind).inc()
        if events is not None:
            events.emit("fault_injected", fault=kind, **fields)

    def __repr__(self):
        return f"<FleetFaultInjector injected={self.injected}>"


class Fleet:
    """A rack (or row) of aggregate machines behind one ToR switch.

    Construction wires the same observability surface as
    :class:`repro.machine.Machine` — ``metrics=True`` for the registry,
    ``timeseries=`` for the flight recorder (with a fleet probe
    publishing per-machine load + replica staleness), ``spans=N`` for
    causal tracing — plus the sync bus and the fleet fault injector.

    Steering: ``steering`` names a policy out of
    :data:`repro.cluster.steering.STEERING_FACTORIES` (or pass a policy
    object to :meth:`install_steering`); verified programs deploy with
    :meth:`deploy_steering_program`.
    """

    def __init__(self, num_machines=100, workers_per_machine=4, seed=1,
                 steering="power_of_two", queue_cap=None, qdisc_factory=None,
                 wire_us=DEFAULT_WIRE_US, forward_us=DEFAULT_FORWARD_US,
                 failover_detect_us=DEFAULT_FAILOVER_DETECT_US,
                 sync_interval_us=50.0, sync_delay_us=25.0,
                 metrics=False, timeseries=None, spans=0, faults=None,
                 warmup_us=0.0, latency_signals=False):
        if num_machines < 1:
            raise ValueError(f"need at least one machine, got {num_machines}")
        self.engine = Engine()
        self.streams = RngStreams(seed)
        self.seed = seed
        self.wire_us = wire_us
        self.forward_us = forward_us
        self.failover_detect_us = failover_detect_us
        self.workers_per_machine = workers_per_machine

        self.obs = Observability(
            clock=self.engine, enabled=metrics, spans=spans,
        )
        # Instrumentation seam (repro.obs.probe), None unless spans are
        # on; machines reach it through their fleet.
        self.probe = self.obs.probe
        if timeseries and metrics:
            interval = (DEFAULT_INTERVAL_US if timeseries is True
                        else float(timeseries))
            recorder = FlightRecorder(self.obs.registry, self.engine,
                                      interval_us=interval)
            recorder.probes.append(self._sample_fleet_state)
            self.obs.recorder = recorder

        self.switch = TorSwitch(num_machines)
        self.machines = [
            FleetMachine(
                i, self, workers_per_machine, queue_cap=queue_cap,
                qdisc=qdisc_factory(i) if qdisc_factory is not None else None,
            )
            for i in range(num_machines)
        ]
        self._workers = [m.workers for m in self.machines]

        self.generator = None
        self.latency = LatencyRecorder(warmup_until=warmup_us)
        self.outstanding = 0
        self.completed = 0
        self.dropped = 0

        self.sync = MapSyncBus(
            self.engine, interval_us=sync_interval_us,
            delay_us=sync_delay_us, active=self._work_pending,
        )
        self.sync.add_channel(
            "load",
            snapshot=self._snapshot_load,
            apply=lambda loads, _stamp: self.switch.apply_load(
                loads, self._workers
            ),
        )
        #: Per-machine completion-latency DDSketches feeding the switch's
        #: ``machine_p99_array`` replica over the sync bus — the fleet
        #: half of the closed telemetry loop.  Opt-in: off, no sketch is
        #: allocated and the p99 replica stays all-zero (tail-aware
        #: steering degrades to plain power-of-two).
        self.machine_sketches = None
        if latency_signals:
            self.machine_sketches = [DDSketch()
                                     for _ in range(num_machines)]
            self.sync.add_channel(
                "p99",
                snapshot=self._snapshot_p99,
                apply=lambda p99s, _stamp: self.switch.apply_p99(p99s),
            )

        # Dark: nothing reads a completion's clock — no span end, no
        # counter a recorder tick sees, no sketch a sync tick snapshots —
        # so the response hop books where service ends, one wire ahead,
        # and posts no event.  ``_due`` (the last booked arrival) keeps
        # it outstanding for the sync bus until then, which is exact
        # while the bus ticks slower than the wire (``_work_pending``).
        self._dark = (self.probe is None and self.obs.registry is None
                      and self.machine_sketches is None
                      and sync_interval_us > wire_us)
        self._due = -math.inf
        # Direct: on a dark fleet of plain FIFO machines nothing is
        # decided when a request lands, so _steer schedules its service
        # there and then (FleetMachine._schedule) and the arrival is no
        # event.  ``_wire`` holds those requests in arrival order until
        # they land, for the load snapshots; ``_schedules`` is each
        # machine's ``_in_service``, which counts them already.
        self._direct = self._dark and queue_cap is None and all(
            m.qdisc is None for m in self.machines)
        self._wire = deque()
        self._schedules = [m._in_service for m in self.machines]
        # Deferred: a direct fleet's service end is fixed at steer time
        # and read by nobody until something observes the rack, so it is
        # no event either.  ``_deferred`` is a min-heap of ``(end, seq,
        # machine, request)``, ``seq`` drawn from the engine's counter as
        # the post would have; ``_retire`` books what the engine would
        # have dispatched by now (``_complete_service``'s body) before
        # every observer runs.  One sweep event at the latest end
        # (``_sweep``) keeps the clock running to the last of them.
        self._deferred = []
        self._sweep = None

        self.injector = None
        if faults is not None:
            self.injector = FleetFaultInjector(self, faults).arm()

        self.steering_name = None
        if steering is not None:
            if isinstance(steering, str):
                factory = STEERING_FACTORIES.get(steering)
                if factory is None:
                    raise ValueError(
                        f"unknown steering policy {steering!r}; known: "
                        f"{sorted(STEERING_FACTORIES)}"
                    )
                self.install_steering(factory(self))
                self.steering_name = steering  # the registry key, not .name
            else:
                self.install_steering(steering)

    # ------------------------------------------------------------------
    @property
    def num_machines(self):
        return len(self.machines)

    def _counter_group(self, scope, name):
        registry = self.obs.registry
        return (None if registry is None
                else registry.counters("fleet", scope, (name,)))

    # The two per-request series, resolved on first use like the rare
    # ones (no series before something counts on it); None when metrics
    # are off, so a dark rack tests them and makes no call.
    _switch_counters = cached_property(
        lambda self: self._counter_group("switch", "forwarded"))
    _fleet_counters = cached_property(
        lambda self: self._counter_group("fleet", "completed"))

    def steering_rng(self):
        """The named stream steering policies draw from (determinism)."""
        return self.streams.get("steering")

    def _work_pending(self):
        # A response booked for a tick's own instant has not arrived yet:
        # its hop would have been posted a wire before, the tick an
        # interval before, and the interval is the longer.
        self._retire()
        gen = self.generator
        return ((gen is not None and not gen.done) or self.outstanding > 0
                or self._due >= self.engine.now)

    def _snapshot_load(self):
        """Per-machine load (queued + in service) for the sync bus."""
        if not self._direct:
            return [len(m._queue) + len(m._in_service)
                    for m in self.machines]
        self._retire()
        loads = list(map(len, self._schedules))
        wire, now = self._wire, self.engine.now
        while wire and wire[0].arrival < now:
            wire.popleft()
        for request in wire:        # scheduled, not landed (see load())
            loads[request.machine] -= 1
        return loads

    def _snapshot_p99(self):
        """Per-machine p99 (int us) from the completion sketches."""
        return [int(s.percentile(99.0)) if s.count else 0
                for s in self.machine_sketches]

    # ------------------------------------------------------------------
    # Steering deployment
    # ------------------------------------------------------------------
    def install_steering(self, policy, port=None, owner=None):
        """Make ``policy`` the default, or a per-port tenant rule."""
        if port is None:
            self.switch.default = policy
        else:
            self.switch.install(port, policy, owner=owner)
        if port is None:
            self.steering_name = getattr(policy, "name", "custom")
        return policy

    def deploy_steering_program(self, source, constants=None, name="program"):
        """Compile + verify + load a Syrup program for the ToR switch.

        The program's ``machine_load_array`` / ``machine_p99_array``
        Maps bind to the switch's replicated load and tail-latency
        replicas (kept fresh by the sync bus), and ``NUM_MACHINES`` /
        ``SPILL_THRESHOLD`` / ``TAIL_LOAD_WEIGHT_US`` are provided as
        compile-time constants unless overridden.
        """
        merged = {"NUM_MACHINES": self.num_machines, "SPILL_THRESHOLD": 8,
                  "TAIL_LOAD_WEIGHT_US": 100}
        merged.update(constants or {})
        program = compile_policy(source, name=name, constants=merged)
        loaded = load_program(
            program,
            maps={"machine_load_array": self.switch.load_map,
                  "machine_p99_array": self.switch.p99_map},
            rng=self.streams.get(f"switch_program/{name}"),
        )
        return SwitchProgramSteering(loaded, name=name)

    def deploy_shadow_steering(self, candidate, port=None, owner=None,
                               canary_pct=10, salt=0x5EED,
                               name="candidate"):
        """Shadow a candidate steering policy behind the live one.

        Wraps the currently-installed policy for ``port`` (or the rack
        default) in a :class:`~repro.cluster.steering.ShadowSteering`
        and installs the wrapper in its place — the candidate sees every
        live steering decision, its picks are diffed, and the canary
        stage enforces it on the deterministic flow-hash cohort.
        Returns the wrapper; call ``promote()`` / ``reject()`` on it and
        re-install the result via :meth:`install_steering` to finish.

        Candidate policies needing randomness should draw from their own
        stream (e.g. ``fleet.streams.get("shadow_steering")``) — sharing
        the active policy's stream would perturb the very control
        decisions the diff judges against.
        """
        if port is None:
            active = self.switch.default
        else:
            rule = self.switch._port_rules.get(port)
            active = rule[0] if rule is not None else self.switch.default
        wrapper = ShadowSteering(
            active, candidate, canary_pct=canary_pct, salt=salt, name=name,
        )
        self.install_steering(wrapper, port=port, owner=owner)
        return wrapper

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def admit(self, request):
        """A client request reaches the rack: sample, steer, forward."""
        rule = self.switch._port_rules.get(request.dst_port)
        if rule is not None and request.tenant is None:
            # ToR tenant stamping: a port rule installed with an owner
            # makes that owner the request's tenant for the rest of its
            # life (per-tenant counters, blame views).  No owned rule →
            # tenant stays None, no per-tenant state is ever touched.
            request.tenant = rule[1]
        self.outstanding += 1
        self._steer(request, rule, False)

    def resteer(self, request):
        """Failover: re-run steering for an orphaned request."""
        self.switch.resteers += 1
        registry = self.obs.registry
        if registry is not None:
            registry.counter("fleet", "switch", "resteers").inc()
        if self.probe is not None:
            self.probe.machine_requeued(request)
        self._steer(request,
                    self.switch._port_rules.get(request.dst_port), True)

    def _steer(self, request, rule, resteer):
        """``TorSwitch.pick`` from the port rule the caller looked up:
        policy → default → fallback, ``None``/``DROP`` sheds."""
        switch = self.switch
        policy = rule[0] if rule is not None else switch.default
        index = policy.pick(request, switch)
        if index is None:
            if policy is not switch.default:
                index = switch.default.pick(request, switch)
            if index is None:
                index = switch.fallback.pick(request, switch)
        if index is None or index == DROP:
            switch.dropped += 1
            if self.probe is not None:
                self.probe.switch_steer(request, None, policy, resteer)
            self.drop(request, "steering_drop")
            return
        request.machine = index
        request.attempts += 1
        switch.forwarded[index] += 1
        if self._switch_counters is not None:
            self._switch_counters["forwarded"].inc()
        if self.probe is not None:
            self.probe.switch_steer(request, index, policy, resteer)
        machine = self.machines[index]
        engine = self.engine
        if not self._direct:
            engine.post(self.forward_us + self.wire_us, machine.receive,
                        request)
        elif not machine.alive or machine._inflight:
            # Lands dead, or behind requests still landing by event:
            # by event too, so the machine keeps arrival order.
            machine._inflight += 1
            engine.post(self.forward_us + self.wire_us, machine._land,
                        request)
        else:
            # FleetMachine._schedule at the arrival instant, in this frame
            now = engine.now
            arrival = now + (self.forward_us + self.wire_us)
            free = machine._free
            start = free[0]
            if arrival > start:
                start = arrival
            end = start + request.service_us
            heapreplace(free, end)
            request.arrival = arrival
            machine._in_service[request] = request
            wire = self._wire
            wire.append(request)
            if wire[0].arrival < now:   # one landed out per steer, so
                wire.popleft()          # it stays short between ticks
            # Fleet._defer, likewise
            engine._seq = seq = engine._seq + 1
            heappush(self._deferred, (end, seq, machine, request))
            if self._sweep is None:
                self._sweep = engine.at(end, self._sweep_due)

    def _defer(self, end, machine, request):
        """Defer a scheduled service's completion at ``end``, under the
        ``seq`` its post would have drawn."""
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        heappush(self._deferred, (end, seq, machine, request))
        if self._sweep is None:
            self._sweep = engine.at(end, self._sweep_due)

    def _retire(self):
        """Complete every deferred service the engine would have by now:
        ordered before the event being dispatched by ``(time, seq)``, or
        ending at or before ``now`` outside the run loop.  Each runs
        ``FleetMachine._complete_service``'s body on a dark FIFO machine,
        in this frame."""
        deferred = self._deferred
        if not deferred:
            return
        engine = self.engine
        now, current = engine.now, engine.dispatching
        wire_us, record = self.wire_us, self.latency.record
        while deferred:
            end, seq, machine, request = deferred[0]
            if end > now or (end == now and seq > current):
                return
            heappop(deferred)
            del machine._in_service[request]
            machine.served += 1
            if not machine.link_up:
                # Carrier is down; the finished response waits at the NIC.
                machine._held_responses.append(request)
                continue
            # The response crosses the rack wire: Fleet._book at its
            # arrival, in this frame.
            self._due = due = end + wire_us
            request.completed_at = due
            rtype = request.rtype
            record(due, due - request.sent_at,
                   tag=TYPE_NAMES.get(rtype) or type_name(rtype))
            self.outstanding -= 1
            self.completed += 1

    def _sweep_due(self):
        """The sweep event: retire what is due, then move on to the
        latest deferred end, so a run with nothing else left still ends
        where the last service does, every completion booked."""
        self._retire()
        self._post_sweep()

    def _post_sweep(self):
        deferred = self._deferred
        self._sweep = (self.engine.at(max(deferred)[0], self._sweep_due)
                       if deferred else None)

    def _drop_deferred(self, machine):
        """A kill: drop every completion deferred at ``machine``, and
        pull the sweep back to the latest end left (a dropped one must
        not move the clock)."""
        deferred = self._deferred
        deferred[:] = [entry for entry in deferred if entry[2] is not machine]
        heapify(deferred)
        if self._sweep is not None:
            self._sweep.cancel()
            self._post_sweep()

    def _book(self, request, arrival):
        """A response reaches the client at ``arrival``: its latency."""
        request.completed_at = arrival
        rtype = request.rtype
        self.latency.record(arrival, arrival - request.sent_at,
                            tag=TYPE_NAMES.get(rtype) or type_name(rtype))
        self.outstanding -= 1
        self.completed += 1

    def _complete(self, request):
        """The response hop's event, on a fleet that is not dark."""
        if self.probe is not None:
            self.probe.fleet_complete(request)
        now = self.engine.now
        self._book(request, now)
        if self.machine_sketches is not None and request.machine is not None:
            self.machine_sketches[request.machine].add(now - request.sent_at)
        if self._fleet_counters is not None:
            self._fleet_counters["completed"].inc()
        if request.tenant is not None:
            registry = self.obs.registry
            if registry is not None:
                registry.counter(
                    "fleet", f"tenant:{request.tenant}", "completed"
                ).inc()

    def drop(self, request, reason):
        if self.probe is not None:
            self.probe.fleet_drop(request, reason)
        self.outstanding -= 1
        self.dropped += 1
        registry, events = self.obs.registry, self.obs.events
        if registry is not None:
            registry.counter("fleet", "fleet", "dropped").inc()
            if request.tenant is not None:
                registry.counter(
                    "fleet", f"tenant:{request.tenant}", "dropped"
                ).inc()
        if events is not None:
            events.emit("fleet_drop", rid=request.rid, reason=reason)

    # ------------------------------------------------------------------
    # Failures (driven by FleetFaultInjector)
    # ------------------------------------------------------------------
    def kill_machine(self, index):
        machine = self.machines[index]
        if not machine.alive:
            return
        machine.kill()
        # The switch keeps steering at the corpse until detection fires.
        self.engine.post(self.failover_detect_us, self._notice_down, index)

    def _notice_down(self, index):
        machine = self.machines[index]
        if not machine.alive:   # restored before detection: stays up, but
            self.switch.mark_down(index)    # the kill's orphans re-steer
        orphans, machine.orphans = machine.orphans, []
        for request in orphans:
            self.resteer(request)

    def restore_machine(self, index):
        machine = self.machines[index]
        machine.restore()
        if machine.link_up:
            self.switch.mark_up(index)

    def link_down(self, index):
        self._retire()
        machine = self.machines[index]
        machine.link_up = False
        # Carrier loss is visible immediately — no detection delay.
        self.switch.mark_down(index)

    def link_restore(self, index):
        machine = self.machines[index]
        machine.link_restore()
        if machine.alive:
            self.switch.mark_up(index)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def drive(self, duration_us, rps, num_users=1_000_000, mix=None,
              diurnal_period_us=None, diurnal_depth=0.0, ports=None):
        """Attach and start the aggregate open-loop generator."""
        self.generator = FleetGenerator(
            self, rps=rps, duration_us=duration_us, num_users=num_users,
            mix=mix, diurnal_period_us=diurnal_period_us,
            diurnal_depth=diurnal_depth, ports=ports,
        )
        self.generator.start()
        return self.generator

    def run(self, until=None):
        """Arm the tick loops and run the engine (safe to call in slices)."""
        self.sync.arm()
        recorder = self.obs.recorder
        if recorder is not None:
            recorder.arm()
        self.engine.run(until=until)
        self._retire()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _sample_fleet_state(self, registry):
        """Flight-recorder probe: per-machine load + replica staleness."""
        for machine in self.machines:
            registry.gauge(
                "fleet", "machine", f"load_{machine.index}"
            ).set(machine.load())
        registry.gauge("fleet", "fleet", "outstanding").set(self.outstanding)
        staleness = self.sync.staleness_us()
        if staleness is not None:
            registry.gauge("fleet", "sync", "staleness_us").set(staleness)

    def fleet_view(self):
        """JSON-safe operator snapshot (``syrupctl fleet``)."""
        self._retire()
        loads = [m.load() for m in self.machines]
        return {
            "machines": self.num_machines,
            "workers_per_machine": self.workers_per_machine,
            "steering": self.steering_name,
            "sync_interval_us": self.sync.interval_us,
            "sync_delay_us": self.sync.delay_us,
            "staleness_us": self.sync.staleness_us(),
            "down": sorted(self.switch._down),
            "offered": self.generator.offered if self.generator else 0,
            "completed": self.completed,
            "dropped": self.dropped,
            "resteers": self.switch.resteers,
            "outstanding": self.outstanding,
            "load_now": loads,
            "served": [m.served for m in self.machines],
            "forwarded": list(self.switch.forwarded),
            "p50_us": self.latency.p50(),
            "p99_us": self.latency.p99(),
        }

    def __repr__(self):
        return (
            f"<Fleet machines={self.num_machines} "
            f"steering={self.steering_name!r} completed={self.completed}>"
        )
