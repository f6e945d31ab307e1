"""The simulated server: engine + NIC + kernel + Syrup, assembled.

This is the top-level object experiments build on::

    machine = Machine(set_a(), seed=1, scheduler="pinned")
    app = machine.register_app("rocksdb", ports=[8080])
    app.deploy_policy(ROUND_ROBIN_SRC, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    machine.run(until=1_000_000)   # one simulated second
"""

from repro.config import MachineConfig
from repro.core.signals import (
    DEFAULT_INTERVAL_US as SIGNAL_INTERVAL_US,
    SignalBus,
)
from repro.core.syrupd import Syrupd
from repro.obs import Observability
from repro.obs.slo import SloTracker
from repro.obs.timeseries import FlightRecorder
from repro.ghost.sched import GhostScheduler
from repro.kernel.cfs import CfsScheduler
from repro.kernel.cpu import Core
from repro.kernel.netstack import NetStack
from repro.kernel.sched import PinnedScheduler
from repro.kernel.sockets import UdpSocket
from repro.net.nic import Nic
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

__all__ = ["Machine"]

_SCHEDULERS = {
    "pinned": PinnedScheduler,
    "cfs": CfsScheduler,
    "ghost": GhostScheduler,
}


class Machine:
    """One simulated end host."""

    def __init__(self, config=None, seed=0, scheduler="pinned", engine=None,
                 metrics=False, event_capacity=4096, timeseries=None,
                 timeseries_capacity=1024, faults=None, health=None,
                 spans=None, spans_capacity=4096, signals=None, slo=None,
                 accounting=False, elastic=None):
        if scheduler not in _SCHEDULERS and scheduler != "elastic":
            raise ValueError(
                f"scheduler must be one of "
                f"{sorted(_SCHEDULERS) + ['elastic']}, got {scheduler!r}"
            )
        self.config = config if config is not None else MachineConfig()
        self.costs = self.config.costs
        # Pass a shared engine to co-simulate several machines (the
        # rack-scale extension in repro.cluster).
        self.engine = engine if engine is not None else Engine()
        # Observability is opt-in (metrics=True): per-hook counters and a
        # decision-event ring (repro.obs), rendered by `syrupctl stats`.
        # A tier that is off is None, its callers skip it, and simulation
        # results stay bit-identical.  spans=N head-samples
        # every Nth request into a causal span tree (repro.obs.spans;
        # True means every request) — independent of metrics, same
        # None-when-off discipline.  accounting=True adds the
        # per-tenant cost accountant (repro.obs.accounting) — it only
        # observes, so results stay bit-identical either way, and
        # tenant-less runs book nothing even when it is live.
        self.obs = Observability(
            clock=self.engine, enabled=metrics,
            event_capacity=event_capacity,
            spans=(0 if spans is None else spans),
            spans_capacity=spans_capacity,
            accounting=accounting,
        )
        # Time-series tier: timeseries=True (1 ms sampling) or a sample
        # interval in simulated us.  The recorder rides the event loop but
        # only reads the registry, so results stay bit-identical (see
        # repro.obs.timeseries); run() (re-)arms it.  Its probe reads the
        # instantaneous queue depths (socket backlogs, softirq queues, NIC
        # in-flight packets, runnable threads) into registry gauges at
        # sample time: pure reads, so the datapath pays nothing.
        if timeseries:
            if not metrics:
                raise ValueError(
                    "timeseries sampling needs the metrics registry "
                    "(construct with Machine(metrics=True, timeseries=...))"
                )
            interval = 1_000.0 if timeseries is True else float(timeseries)
            recorder = self.obs.recorder = FlightRecorder(
                self.obs.registry, self.engine, interval_us=interval,
                capacity=timeseries_capacity,
            )
            recorder.probes.append(self._sample_queue_state)
        # The signal plane (repro.core.signals): signals=True (5 ms
        # cadence) or an interval in simulated us arms a SignalBus that
        # samples telemetry into Maps and runs control laws; slo=True
        # attaches an SloTracker (repro.obs.slo) for objectives fed by
        # the workload.  Both are OFF by default and, when absent, None
        # leaves every simulation output bit-identical
        # — controllers only exist (and only then change behavior) when
        # explicitly requested.
        self.signals = None
        if signals:
            interval = (
                SIGNAL_INTERVAL_US if signals is True else float(signals)
            )
            self.signals = SignalBus(self.engine, interval_us=interval)
        self.slo = None
        if slo:
            self.slo = SloTracker(clock=self.engine)
        self.streams = RngStreams(seed)
        self.cores = [Core(i) for i in range(self.config.num_app_cores)]
        self.scheduler_kind = scheduler
        # Elastic core arbitration (repro.kernel.arbiter): None unless
        # scheduler="elastic" — the default allocates nothing and leaves
        # every other mode bit-identical.
        self.arbiter = None
        self.agent_cores = []
        # The one write-side handle to spans + accounting
        # (repro.obs.probe), given to every datapath component; None when
        # no tier listens, and then no component makes a seam call.
        probe = self.obs.probe
        if scheduler == "ghost":
            if len(self.cores) < 2:
                raise ValueError("ghOSt needs at least 2 cores (1 for the agent)")
            # The spinning agent occupies the last core (paper §5.3: "one is
            # reserved for the spinning ghOSt agent").
            self.agent_core = self.cores[-1]
            sched_cores = self.cores[:-1]
        else:
            self.agent_core = None
            sched_cores = self.cores
        if scheduler == "elastic":
            # Deferred import keeps the default path allocation-free.
            from repro.kernel.arbiter import build_elastic

            self.scheduler, self.arbiter, self.agent_cores = build_elastic(
                self, elastic
            )
        else:
            if elastic is not None:
                raise ValueError(
                    "elastic= spec requires Machine(scheduler='elastic')"
                )
            self.scheduler = _SCHEDULERS[scheduler](
                self.engine, sched_cores, self.costs, probe
            )
        salt = self.streams.get("rss-salt").getrandbits(32)
        self.nic = Nic(self.engine, self.config.nic, self.costs, salt=salt,
                       probe=probe)
        self.netstack = NetStack(self.engine, self.config, probe=probe)
        self._next_sid = 1  # socket ids are per machine, like syrupd's fds
        self.nic.deliver = self.netstack.deliver_from_nic
        # health: a repro.core.health.HealthPolicy (None = defaults) for
        # syrupd's self-healing lifecycle (quarantine thresholds,
        # watchdog backoff); faults: a repro.faults.FaultPlan armed at
        # construction.  Both default off/no-op: with faults=None no
        # injector exists, no program is wrapped, no event is scheduled,
        # and results are bit-identical to builds without these features.
        self.syrupd = Syrupd(self, health=health)
        self.faults = None
        if faults is not None:
            from repro.faults import FaultInjector

            self.faults = FaultInjector(self, faults)
            self.faults.arm()

    # ------------------------------------------------------------------
    def _sample_queue_state(self, reg):
        """Flight-recorder probe: instantaneous queue depths as gauges.

        Per-socket backlog (``<app>/sockets/s<sid>.backlog``), per-core
        softirq queue length, NIC packets between arrival and IRQ
        delivery, and the scheduler's runnable-thread count (plus
        per-core runqueue depth on runqueue-based schedulers).
        """
        reg.gauge("(root)", "nic", "rx_in_flight").set(self.nic.in_flight)
        for i, server in enumerate(self.netstack.softirq):
            reg.gauge("(root)", "softirq", f"core{i}.qlen").set(len(server))
        table = self.netstack.socket_table
        for port in table.ports():
            for socket in table.group(port):
                reg.gauge(socket.app or "(root)", "sockets",
                          f"s{socket.sid}.backlog").set(len(socket))
        runnable = sum(
            1 for t in self.scheduler.threads if t.state == "runnable"
        )
        reg.gauge("(root)", "sched", "runnable_threads").set(runnable)
        runqueues = getattr(self.scheduler, "_rq", None)
        if runqueues is not None:
            for cid, rq in runqueues.items():
                reg.gauge("(root)", "sched", f"core{cid}.rq_depth").set(
                    len(rq)
                )

    # ------------------------------------------------------------------
    @property
    def now(self):
        return self.engine.now

    def register_app(self, name, ports):
        return self.syrupd.register_app(name, ports)

    def create_udp_socket(self, app, port, is_af_xdp=False):
        """Create a socket; non-AF_XDP sockets bind into the socket table
        (SO_REUSEPORT semantics: same port -> same group)."""
        socket = UdpSocket(
            port,
            app=app.name if app else None,
            backlog=self.config.socket_backlog,
            is_af_xdp=is_af_xdp,
            sid=self._next_sid,
            probe=self.obs.probe,
        )
        self._next_sid += 1
        if not is_af_xdp:
            self.netstack.socket_table.bind(socket)
        return socket

    def run(self, until=None):
        """Advance the simulation (time in microseconds)."""
        recorder, bus = self.obs.recorder, self.signals
        if recorder is not None:
            recorder.arm()
        if bus is not None:
            bus.arm()
        self.engine.run(until=until)

    def __repr__(self):
        return (
            f"<Machine {self.config.name} cores={len(self.cores)} "
            f"sched={self.scheduler_kind} t={self.engine.now:.0f}us>"
        )
