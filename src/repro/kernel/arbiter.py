"""Elastic core arbitration: scheduling classes compete for cores.

Every run before this subsystem statically dedicated cores: ghOSt
enclaves and CFS never met, so the paper's multi-scheduler story was
only exercised in the trivial partitioned case.  The
:class:`CoreArbiter` makes the partition *dynamic*: it owns a pool of
cores and hands out revocable **core grants** to registered scheduling
classes.  A grant appends the core to the class scheduler's core set; a
revocation migrates the core's work away (CFS re-queues threads on the
surviving cores, ghOSt aborts in-flight commit transactions through the
agent's commit-epoch guard and re-decides) and returns the core to the
arbiter.  Invariants the arbiter enforces:

- **no double grant** — a core has at most one owner at a time;
- **floors** — a plain revocation may not take a class below its
  configured floor (fault-driven revocations may, see :meth:`stall`,
  but the arbiter then backfills from the free pool or borrows from the
  most surplus class so the victim keeps capacity);
- **conservation** — revocation never strands a runnable thread: the
  class scheduler must absorb the core's queue via migration.

On top sits the :class:`ElasticCoreController`, a control law for the
PR-7 :class:`~repro.core.signals.SignalBus`: it smooths per-class
demand (runnable + running thread counts — runqueue depth plus
utilization in one number), apportions the pool proportionally with
floors respected, and moves at most one core per firing after a
hysteresis streak, so anti-correlated flash crowds are followed without
flapping.

:class:`ElasticScheduler` is the thin machine-facing facade
(``Machine(scheduler="elastic", elastic=ElasticSpec()...)``): it routes
``attach`` by app name to the owning class scheduler and exposes the
union views the rest of the stack expects.  Null-twin discipline: a
machine built without ``scheduler="elastic"`` allocates none of these
objects (``machine.arbiter`` stays ``None``) and simulates
bit-identically to builds before this module existed.

See docs/oversubscription.md for the grant/revoke protocol walkthrough
and the ``figure_oversub`` experiment this powers.
"""

from collections import deque

from repro.ghost.sched import GhostScheduler
from repro.kernel.cfs import CfsScheduler

__all__ = [
    "CoreArbiter",
    "CoreGrantError",
    "ElasticCoreController",
    "ElasticScheduler",
    "ElasticSpec",
    "build_elastic",
]

#: Per-core occupancy-timeline ring capacity (oldest segments drop).
TIMELINE_CAPACITY = 1024


class CoreGrantError(RuntimeError):
    """An arbitration invariant would be violated (double grant,
    unknown core/class, or a floor-breaking revocation)."""


class _CoreClass:
    """Arbiter-side record of one registered scheduling class."""

    __slots__ = ("name", "scheduler", "floor", "tenant", "cores",
                 "grants", "revocations", "occupancy_us")

    def __init__(self, name, scheduler, floor, tenant):
        self.name = name
        self.scheduler = scheduler
        self.floor = floor
        self.tenant = tenant
        self.cores = []           # granted Core objects, grant order
        self.grants = 0
        self.revocations = 0
        self.occupancy_us = 0.0   # closed-segment core-occupancy time

    def pressure(self):
        """Demand proxy: threads wanting CPU (runnable + running)."""
        return sum(
            1 for t in self.scheduler.threads if t.state != "blocked"
        )


class CoreArbiter:
    """Owns a pool of cores; grants them, revocably, to classes."""

    def __init__(self, engine, cores, events=None, probe=None):
        self.engine = engine
        self.pool = list(cores)
        self._by_cid = {core.cid: core for core in self.pool}
        self.classes = {}
        self._order = []             # registration order (determinism)
        self._owner = {core.cid: None for core in self.pool}
        self._segment = {}           # cid -> (start_us, class name)
        self._timeline = {
            core.cid: deque(maxlen=TIMELINE_CAPACITY) for core in self.pool
        }
        self._stalls = {}            # cid -> stall record (active)
        self._stall_token = {core.cid: 0 for core in self.pool}
        self.events = events
        self.probe = probe
        self.moves = 0               # controller-driven reallocations
        self.stall_count = 0

    # -- registration ---------------------------------------------------
    def register(self, name, scheduler, floor=1, tenant=None):
        if name in self.classes:
            raise CoreGrantError(f"class {name!r} already registered")
        if floor < 0:
            raise ValueError("floor must be >= 0")
        self.classes[name] = _CoreClass(name, scheduler, floor, tenant)
        self._order.append(name)
        return self.classes[name]

    # -- grant / revoke -------------------------------------------------
    def _core(self, cid):
        core = self._by_cid.get(cid)
        if core is None:
            raise CoreGrantError(f"core {cid} is not in the arbitrated pool")
        return core

    def grant(self, cid, name):
        """Grant core ``cid`` to class ``name``; no double grants."""
        core = self._core(cid)
        cls = self.classes.get(name)
        if cls is None:
            raise CoreGrantError(f"unknown class {name!r}")
        owner = self._owner[cid]
        if owner is not None:
            raise CoreGrantError(
                f"core {cid} is already granted to {owner!r}"
            )
        if cid in self._stalls:
            raise CoreGrantError(f"core {cid} is stalled")
        self._owner[cid] = name
        self._segment[cid] = (self.engine.now, name)
        cls.cores.append(core)
        cls.grants += 1
        cls.scheduler.add_core(core)
        self._emit("core_grant", cid=cid, to=name)

    def revoke(self, cid, force=False, reason="rebalance"):
        """Take core ``cid`` back; returns the prior owner's name.

        The owning class scheduler migrates the core's work before the
        core is released (``remove_core``), so no runnable thread is
        stranded.  Without ``force``, refuses to shrink a class below
        its floor (fault paths pass ``force=True`` — physics does not
        respect floors — and then backfill).
        """
        core = self._core(cid)
        name = self._owner[cid]
        if name is None:
            raise CoreGrantError(f"core {cid} is not granted")
        cls = self.classes[name]
        if not force and len(cls.cores) <= cls.floor:
            raise CoreGrantError(
                f"revoking core {cid} would take class {name!r} below "
                f"its floor of {cls.floor}"
            )
        cls.scheduler.remove_core(core)
        cls.cores.remove(core)
        cls.revocations += 1
        self._owner[cid] = None
        self._close_segment(cid)
        self._emit("core_revoke", cid=cid, owner=name, reason=reason)
        return name

    def move(self, cid, name, reason="rebalance"):
        """Revoke + grant in one step (controller reallocation)."""
        self.revoke(cid, reason=reason)
        self.grant(cid, name)
        self.moves += 1

    def _close_segment(self, cid):
        seg = self._segment.pop(cid, None)
        if seg is None:
            return
        start, name = seg
        end = self.engine.now
        self._timeline[cid].append((start, end, name))
        cls = self.classes.get(name)
        if cls is not None:
            cls.occupancy_us += end - start
            if cls.tenant is not None and self.probe is not None:
                self.probe.book_core_occupancy(cls.tenant, end - start)

    # -- queries ---------------------------------------------------------
    def owner_of(self, cid):
        return self._owner.get(cid)

    def free_cores(self):
        """Grantable cores (unowned, unstalled), pool order."""
        return [
            core.cid for core in self.pool
            if self._owner[core.cid] is None and core.cid not in self._stalls
        ]

    def allocation(self):
        """``{class: [cid, ...]}`` in grant order."""
        return {
            name: [core.cid for core in self.classes[name].cores]
            for name in self._order
        }

    def grantable(self):
        """Number of pool cores not taken out by an active stall."""
        return len(self.pool) - len(self._stalls)

    # -- fault composition (PR-3 core_stall) ------------------------------
    def stall(self, cid, duration_us):
        """A granted core stops executing; re-grant around it.

        The stalled core is force-revoked from its owner (migrating its
        work — the arbiter's watchdog view of a stall is "this core is
        gone, move the queue").  The owner is then backfilled: from the
        free pool if a core is idle, else by *borrowing* the
        most-surplus class's newest core (never below that class's
        floor).  When the stall lifts, the recovered core repays the
        lender — allocations return to their pre-stall shape unless the
        controller moved cores in between.

        Returns a record dict (also used by fault telemetry).
        """
        cid = self.pool[cid % len(self.pool)].cid
        token = self._stall_token[cid] + 1
        self._stall_token[cid] = token
        if cid in self._stalls:
            # stall extended: keep the original victim/loan bookkeeping
            self._stalls[cid]["until_us"] = self.engine.now + duration_us
            self.engine.post(duration_us, self._unstall, cid, token)
            return self._stalls[cid]
        victim = self._owner[cid]
        if victim is not None:
            self.revoke(cid, force=True, reason="stall")
        record = {
            "cid": cid, "victim": victim, "backfill": None, "lender": None,
            "until_us": self.engine.now + duration_us,
        }
        self._stalls[cid] = record
        self.stall_count += 1
        if victim is not None:
            free = self.free_cores()
            if free:
                record["backfill"] = free[0]
                self.grant(free[0], victim)
            else:
                lender = self._surplus_donor(exclude=victim)
                if lender is not None:
                    borrowed = self.classes[lender].cores[-1].cid
                    self.revoke(borrowed, reason="stall_backfill")
                    self.grant(borrowed, victim)
                    record["backfill"] = borrowed
                    record["lender"] = lender
        self._emit("core_stall", **{k: record[k] for k in
                                    ("cid", "victim", "backfill", "lender")})
        self.engine.post(duration_us, self._unstall, cid, token)
        return record

    def _surplus_donor(self, exclude):
        """Class with the most cores above floor (registration-order tie
        break); None if every other class sits at its floor."""
        best, best_surplus = None, 0
        for name in self._order:
            if name == exclude:
                continue
            cls = self.classes[name]
            surplus = len(cls.cores) - cls.floor
            if surplus > best_surplus:
                best, best_surplus = name, surplus
        return best

    def _unstall(self, cid, token):
        if self._stall_token.get(cid) != token:
            return  # superseded by a newer stall on the same core
        record = self._stalls.pop(cid, None)
        if record is None:
            return
        # Repay the lender, else hand the recovered core back to the
        # stall's victim; with neither, it stays in the free pool for
        # the controller.
        target = record["lender"] or record["victim"]
        if target is not None and target in self.classes:
            self.grant(cid, target)
        self._emit("core_unstall", cid=cid, to=target)

    def settle(self):
        """Close-and-reopen every open occupancy segment at ``now``.

        Books held-so-far time into class totals and tenant ledgers so
        end-of-run reads (and ``view()``) are current.  Idempotent at a
        given instant.
        """
        now = self.engine.now
        for cid in list(self._segment):
            start, name = self._segment[cid]
            if now > start:
                self._close_segment(cid)
                self._segment[cid] = (now, name)

    # -- telemetry --------------------------------------------------------
    def _emit(self, kind, **fields):
        events = self.events
        if events is not None:
            events.emit(kind, **fields)

    def occupancy_us(self, name):
        """Closed + open-segment occupancy for class ``name``."""
        cls = self.classes[name]
        total = cls.occupancy_us
        now = self.engine.now
        for cid, (start, owner) in self._segment.items():
            if owner == name:
                total += now - start
        return total

    def timeline(self, cid):
        """Occupancy segments for core ``cid``: closed + the open one."""
        segments = list(self._timeline.get(cid, ()))
        seg = self._segment.get(cid)
        if seg is not None:
            segments.append((seg[0], None, seg[1]))
        return segments

    def view(self):
        """JSON-safe snapshot (``syrupctl cores --json``)."""
        self.settle()
        now = self.engine.now
        return {
            "now_us": now,
            "pool": [core.cid for core in self.pool],
            "moves": self.moves,
            "stalls": self.stall_count,
            "stalled": {
                cid: {"victim": rec["victim"], "backfill": rec["backfill"],
                      "lender": rec["lender"], "until_us": rec["until_us"]}
                for cid, rec in sorted(self._stalls.items())
            },
            "classes": [
                {
                    "name": name,
                    "floor": self.classes[name].floor,
                    "tenant": self.classes[name].tenant,
                    "cores": [c.cid for c in self.classes[name].cores],
                    "grants": self.classes[name].grants,
                    "revocations": self.classes[name].revocations,
                    "occupancy_us": self.occupancy_us(name),
                    "pressure": self.classes[name].pressure(),
                }
                for name in self._order
            ],
            "timeline": {
                core.cid: [
                    {"start_us": s, "end_us": e, "owner": o}
                    for s, e, o in self.timeline(core.cid)
                ]
                for core in self.pool
            },
        }


class ElasticCoreController:
    """SignalBus control law: follow demand, respect floors, damp flap.

    Each firing it (1) EWMA-smooths every class's pressure (runnable +
    running threads — runqueue depth and utilization collapse into the
    one number the apportionment needs), (2) computes proportional
    integer targets over the grantable pool with floors carved out
    first (largest-remainder rounding, registration-order ties), and
    (3) moves **one** core from the most over-allocated class to the
    most under-allocated one — but only after the same (donor,
    receiver) imbalance has persisted for ``hysteresis_ticks``
    consecutive firings.
    """

    def __init__(self, arbiter, hysteresis_ticks=2, alpha=0.4):
        self.arbiter = arbiter
        self.hysteresis_ticks = hysteresis_ticks
        self.alpha = alpha
        self._ewma = {}
        self._pending = None     # (donor, receiver) under observation
        self._streak = 0

    # -- wiring -----------------------------------------------------------
    def register(self, bus, name="elastic_cores"):
        """Attach to a SignalBus: per-class pressure signals + the law."""
        for cls_name in self.arbiter._order:
            cls = self.arbiter.classes[cls_name]
            bus.add_signal(
                f"cores_{cls_name}_pressure",
                lambda c=cls: float(c.pressure()),
            )
        bus.add_controller(name, self)
        return self

    # -- the law ----------------------------------------------------------
    def pressures(self):
        smoothed = {}
        for name in self.arbiter._order:
            raw = float(self.arbiter.classes[name].pressure())
            prev = self._ewma.get(name)
            value = raw if prev is None else (
                self.alpha * raw + (1.0 - self.alpha) * prev
            )
            self._ewma[name] = value
            smoothed[name] = value
        return smoothed

    def targets(self, smoothed):
        """Floors first, then largest-remainder proportional shares."""
        arbiter = self.arbiter
        order = arbiter._order
        grantable = arbiter.grantable()
        floors = {n: arbiter.classes[n].floor for n in order}
        base = dict(floors)
        spare = grantable - sum(floors.values())
        if spare <= 0:
            return base
        weights = {n: max(smoothed[n], 1e-6) for n in order}
        total = sum(weights.values())
        shares = {n: spare * weights[n] / total for n in order}
        floored = {n: int(shares[n]) for n in order}
        leftover = spare - sum(floored.values())
        by_remainder = sorted(
            order,
            key=lambda n: (-(shares[n] - floored[n]), order.index(n)),
        )
        for n in by_remainder[:leftover]:
            floored[n] += 1
        return {n: base[n] + floored[n] for n in order}

    def __call__(self):
        arbiter = self.arbiter
        targets = self.targets(self.pressures())
        alloc = {
            n: len(arbiter.classes[n].cores) for n in arbiter._order
        }
        donor = receiver = None
        worst_give = worst_need = 0
        for n in arbiter._order:
            gap = alloc[n] - targets[n]
            if gap > worst_give and alloc[n] > arbiter.classes[n].floor:
                donor, worst_give = n, gap
            if -gap > worst_need:
                receiver, worst_need = n, -gap
        # free cores satisfy a deficit without revoking anyone
        if receiver is not None:
            free = arbiter.free_cores()
            if free:
                arbiter.grant(free[0], receiver)
                self._pending, self._streak = None, 0
                return
        if donor is None or receiver is None or donor == receiver:
            self._pending, self._streak = None, 0
            return
        if (donor, receiver) == self._pending:
            self._streak += 1
        else:
            self._pending, self._streak = (donor, receiver), 1
        if self._streak < self.hysteresis_ticks:
            return
        newest = arbiter.classes[donor].cores[-1].cid
        arbiter.move(newest, receiver, reason="elastic")
        self._pending, self._streak = None, 0


class ElasticSpec:
    """Declarative machine spec: which classes exist, with what shape.

    ::

        spec = (ElasticSpec()
                .ghost("search", floor=1, tenant="search")
                .cfs("batch", floor=1, tenant="batch", default=True))
        machine = Machine(set_a(), scheduler="elastic", elastic=spec)

    Each ghost class reserves one core for its spinning agent (off the
    arbitrated pool, as in ``scheduler="ghost"``); ``initial`` pins a
    class's starting grant count (floors + round-robin otherwise) —
    the knob the ``figure_oversub`` static splits turn.
    """

    def __init__(self):
        self.entries = []

    def ghost(self, app, floor=1, tenant=None, initial=None, name=None):
        self.entries.append({
            "kind": "ghost", "name": name or app, "app": app,
            "floor": floor, "tenant": tenant, "initial": initial,
            "default": False,
        })
        return self

    def cfs(self, name="cfs", apps=(), floor=1, tenant=None, initial=None,
            default=True):
        self.entries.append({
            "kind": "cfs", "name": name, "apps": tuple(apps),
            "floor": floor, "tenant": tenant, "initial": initial,
            "default": default,
        })
        return self


class ElasticScheduler:
    """Machine-facing facade over the per-class schedulers.

    Threads never point at the facade: ``attach`` routes by the
    thread's app to the owning class scheduler, which takes over from
    there (wakes and dispatches go straight to the class).  The facade
    only aggregates the views the rest of the stack reads
    (``threads``, ``cores``, app→class resolution for syrupd's Thread
    Scheduler hook).
    """

    def __init__(self, engine, costs):
        self.engine = engine
        self.costs = costs
        self.classes = {}
        self._order = []
        self._by_app = {}
        self._default = None

    def add_class(self, name, scheduler, apps=(), default=False):
        self.classes[name] = scheduler
        self._order.append(name)
        for app in apps:
            self._by_app[app] = name
        if default or self._default is None:
            self._default = name
        return scheduler

    def class_for_app(self, app):
        """The scheduler owning ``app``'s threads (syrupd resolves the
        Thread Scheduler hook through this)."""
        name = self._by_app.get(app, self._default)
        return self.classes[name]

    def attach(self, thread):
        self.class_for_app(thread.app).attach(thread)

    def wake(self, thread):
        # Normally unreachable: attach rebinds thread.scheduler to the
        # class scheduler.  Kept for API completeness.
        thread.scheduler.wake(thread)

    @property
    def threads(self):
        out = []
        for name in self._order:
            out.extend(self.classes[name].threads)
        return out

    @property
    def cores(self):
        out = []
        for name in self._order:
            out.extend(self.classes[name].cores)
        return sorted(out, key=lambda c: c.cid)

    def runnable_threads(self):
        return [t for t in self.threads if t.state == "runnable"]


def build_elastic(machine, spec):
    """Assemble facade + arbiter for ``Machine(scheduler="elastic")``.

    Returns ``(facade, arbiter, agent_cores)``.  The last ``n_ghost``
    machine cores are reserved for spinning agents (one per ghost
    class, mirroring ``scheduler="ghost"``); the rest form the
    arbitrated pool.  Initial grants: explicit ``initial`` counts are
    honored exactly; otherwise floors first, then the remainder
    round-robin in registration order.
    """
    if spec is None or not getattr(spec, "entries", None):
        raise ValueError(
            "Machine(scheduler='elastic') needs elastic=ElasticSpec() "
            "with at least one class"
        )
    entries = spec.entries
    n_ghost = sum(1 for e in entries if e["kind"] == "ghost")
    floors = sum(e["floor"] for e in entries)
    if len(machine.cores) < n_ghost + max(floors, len(entries)):
        raise ValueError(
            f"{len(machine.cores)} cores cannot host {n_ghost} agent "
            f"core(s) plus class floors totalling {floors}"
        )
    agent_cores = machine.cores[len(machine.cores) - n_ghost:] if n_ghost \
        else []
    pool = machine.cores[:len(machine.cores) - n_ghost]

    facade = ElasticScheduler(machine.engine, machine.costs)
    probe = machine.obs.probe
    arbiter = CoreArbiter(
        machine.engine, pool, events=machine.obs.events, probe=probe,
    )
    for entry in entries:
        if entry["kind"] == "ghost":
            sched = GhostScheduler(machine.engine, [], machine.costs, probe)
            facade.add_class(entry["name"], sched, apps=(entry["app"],),
                             default=entry["default"])
        else:
            sched = CfsScheduler(machine.engine, [], machine.costs, probe)
            facade.add_class(entry["name"], sched, apps=entry["apps"],
                             default=entry["default"])
        arbiter.register(entry["name"], sched, floor=entry["floor"],
                         tenant=entry["tenant"])

    # initial grants
    explicit = all(e["initial"] is not None for e in entries)
    counts = {}
    if explicit:
        total = sum(e["initial"] for e in entries)
        if total != len(pool):
            raise ValueError(
                f"initial grants sum to {total} but the arbitrated pool "
                f"has {len(pool)} cores"
            )
        for e in entries:
            if e["initial"] < e["floor"]:
                raise ValueError(
                    f"class {e['name']!r}: initial={e['initial']} is "
                    f"below floor={e['floor']}"
                )
            counts[e["name"]] = e["initial"]
    else:
        counts = {e["name"]: e["floor"] for e in entries}
        spare = len(pool) - sum(counts.values())
        i = 0
        while spare > 0:
            counts[entries[i % len(entries)]["name"]] += 1
            spare -= 1
            i += 1
    free = [core.cid for core in pool]
    for e in entries:
        for _ in range(counts[e["name"]]):
            arbiter.grant(free.pop(0), e["name"])
    return facade, arbiter, agent_cores
