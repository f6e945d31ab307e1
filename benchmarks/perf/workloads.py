"""The five benchmark workloads, staged through public ``repro`` entry points.

Each ``stage_*`` function builds a machine (or fleet) from ``seed`` with
its load scheduled and nothing run, and returns a :class:`Staged`: the
system whose ``run()`` the harness times, how long the load lasts, and a
``finish()`` that reads the simulated outputs after the run.  Why each
workload exists is in README.md and in ``BENCHMARK.json``.

Refactor-proofing: nothing here imports an underscore-prefixed name or
reads an ``_attr`` of a ``repro`` object (``test_perf_bench.py`` enforces
it), so code may move under ``src/`` as long as the public entry points
keep working.  Sizes give about 3.6 s of ``run()`` at the commit that
added the benchmark; ``quick`` shrinks simulated durations tenfold for
the self-test and is never used for reported numbers.
"""

import math
from typing import Callable, NamedTuple

from repro import FaultPlan, Hook
from repro.cluster import Fleet
from repro.experiments.runner import RocksDbTestbed
from repro.policies.adaptive import (
    ADAPTIVE_SELECT,
    SRPT_AUTO_THRESHOLD,
    BlameController,
    ShedController,
    SrptThresholdController,
)
from repro.policies.builtin import HASH_BY_FLOW, ROUND_ROBIN, SCAN_AVOID
from repro.policies.thread_policies import GetPriorityPolicy
from repro.qdisc.policies import SRPT_BY_SIZE
from repro.workload.mixes import GET_SCAN_50_50, GET_SCAN_995_005
from repro.workload.requests import GET, SCAN

WARMUP_FRACTION = 0.2
QUICK_DIVISOR = 10.0


class Staged(NamedTuple):
    """One staged workload: what to time, and how to read it afterwards."""

    system: object          # the Machine or Fleet: .run(), .engine
    duration_us: float      # simulated time the load lasts
    finish: Callable        # () -> Outcome, call once after the run
    probes: dict            # counter name -> () -> number (may raise)


class Outcome(NamedTuple):
    """Simulated outputs of one run, all exact for a given seed."""

    offered: int            # requests the generator offered
    fingerprint: dict       # exact simulated outputs, by name
    breaches: list          # output checks that failed, as text


def scaled(duration_us, quick):
    return duration_us / QUICK_DIVISOR if quick else duration_us


# ----------------------------------------------------------------------
# Single-machine workloads share one reader for the RocksDB testbed.
# ----------------------------------------------------------------------
def machine_drops(testbed):
    """Every booked drop: NIC reasons, netstack reasons, socket backlog
    (overflow is booked by both the netstack and the socket, evictions by
    the socket alone, so the socket's count replaces the netstack's)."""
    machine = testbed.machine
    netstack = dict(machine.netstack.drops)
    netstack.pop("socket_overflow")
    return (sum(machine.nic.drops.values()) + sum(netstack.values())
            + testbed.server.total_socket_drops())


def machine_outcome(testbed, gen, duration_us, guards, extra=dict):
    """Read one finished single-machine run.  ``extra()`` adds the
    workload's own fingerprint fields; ``guards(fingerprint)`` returns its
    regime checks as ``(ok, what went wrong)`` pairs."""
    machine = testbed.machine
    offered = machine.nic.rx_packets
    completed = testbed.server.stats.completed.total()
    dropped = machine_drops(testbed)
    queued = sum(len(socket) for socket in testbed.server.sockets)
    fingerprint = {
        "events": machine.engine.events_dispatched,
        "offered": offered,
        "completed": completed,
        "dropped": dropped,
        "sent_in_window": gen.sent_in_window(),
        "completed_in_window": gen.completed_in_window(),
        "drop_fraction": gen.drop_fraction(),
        "goodput_rps": gen.goodput_rps(duration_us),
    }
    for name, tag in (("get", GET), ("scan", SCAN)):
        fingerprint[f"{name}_p50_us"] = gen.latency.p50(tag=tag)
        fingerprint[f"{name}_p99_us"] = gen.latency.p99(tag=tag)
    fingerprint.update(extra())
    checks = guards(fingerprint) + [
        (offered == completed + dropped,
         f"{offered - completed - dropped} requests neither completed nor "
         "booked as a drop"),
        (not machine.engine.pending() and not queued,
         f"not drained: {machine.engine.pending()} events pending, "
         f"{queued} datagrams queued"),
    ]
    return Outcome(offered, fingerprint,
                   [text for ok, text in checks if not ok])


def machine_probes(testbed):
    machine = testbed.machine
    sockets = testbed.server.sockets
    return {
        "events": lambda: machine.engine.events_dispatched,
        "rx_packets": lambda: machine.nic.rx_packets,
        "delivered": lambda: machine.netstack.delivered,
        "socket_enqueued": lambda: sum(s.enqueued for s in sockets),
        "socket_drops": lambda: sum(s.drops for s in sockets),
        "qdisc_enqueues": lambda: sum(
            row["enqueues"] for row in machine.syrupd.qdiscs()
        ),
        "userspace_map_ops": lambda: sum(
            m.userspace_ops
            for m in (testbed.server.scan_map, testbed.server.type_map,
                      testbed.server.svc_time_map)
            if m is not None
        ),
        "signal_ticks": lambda: machine.signals.ticks,
        "spans_sampled": lambda: machine.obs.spans.sampled,
        "registry_series": lambda: len(machine.obs.registry),
    }


def no_drops(fingerprint):
    return [(fingerprint["dropped"] == 0,
             f"expected zero drops, got {fingerprint['dropped']}")]


# ----------------------------------------------------------------------
def stage_rocksdb_steady(seed, quick):
    """The bare packet path with every telemetry tier off."""
    duration_us = scaled(800_000.0, quick)
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
        mark_scans=True, num_threads=6, seed=seed,
    )
    gen = testbed.drive(150_000, GET_SCAN_995_005, duration_us,
                        duration_us * WARMUP_FRACTION).start()
    return Staged(
        testbed.machine, duration_us,
        lambda: machine_outcome(testbed, gen, duration_us, no_drops),
        machine_probes(testbed),
    )


# ----------------------------------------------------------------------
CONTROL_THREADS = 6
CONTROL_SIGNAL_INTERVAL_US = 2_000.0
CONTROL_GET_P99_US = 0.75 * 600.0
CONTROL_AVAILABILITY = 0.99


def stage_control_loop(seed, quick, extra_tiers=True):
    """figure_adaptive's closed loop with every telemetry tier on.

    ``extra_tiers=False`` is the no-perturbation pairing: the same wiring
    without the time-series, span and accounting tiers must give the same
    simulated fingerprint.
    """
    duration_us = scaled(185_000.0, quick)
    tiers = (dict(timeseries=5_000.0, spans=16, accounting=True)
             if extra_tiers else {})
    testbed = RocksDbTestbed(
        policy=(ADAPTIVE_SELECT, Hook.SOCKET_SELECT,
                {"NUM_THREADS": CONTROL_THREADS, "SHED_RTYPE": SCAN}),
        qdisc=(SRPT_AUTO_THRESHOLD, "socket", "pifo"),
        mark_sizes=True, mark_scans=True, num_threads=CONTROL_THREADS,
        seed=seed, metrics=True, signals=CONTROL_SIGNAL_INTERVAL_US,
        slo=True, **tiers,
    )
    gen = testbed.drive(280_000, GET_SCAN_995_005, duration_us,
                        duration_us * WARMUP_FRACTION,
                        tenant="bench").start()
    shed = wire_control_loop(testbed, gen, duration_us)

    def guards(fingerprint):
        fraction = fingerprint["drop_fraction"]
        return [
            (0.0 < fraction < 0.01,
             f"drop fraction {fraction:.4%} outside (0, 1%)"),
            (shed["peak"] > 0, "the shed valve never opened"),
        ]

    return Staged(
        testbed.machine, duration_us,
        lambda: machine_outcome(
            testbed, gen, duration_us, guards,
            extra=lambda: {"shed_level_peak": shed["peak"]}),
        machine_probes(testbed),
    )


def wire_control_loop(testbed, gen, duration_us):
    """figure_adaptive's sensors, objectives and controllers, rebuilt on
    the public seams (SignalBus, SloTracker, registry sketches, Maps)."""
    machine = testbed.machine
    app = testbed.app
    server = testbed.server
    registry = machine.obs.registry

    shed_map = app.create_map("shed_map", size=1)
    blame_map = app.create_map("blame_map", size=64)
    thresh_map = app.create_map("srpt_thresh_map", size=1)

    svc_sketch = registry.sketch("rocksdb", "service", "svc_time_us")
    server.svc_sketch = svc_sketch
    lat_sketch = registry.sketch("rocksdb", "client", "get_latency_us")
    windows = dict(short_window_us=20_000.0, long_window_us=80_000.0)
    lat_slo = machine.slo.latency(
        "get_p99", threshold_us=CONTROL_GET_P99_US, target=0.99,
        page_burn=5.0, warn_burn=1.0, **windows,
    )
    avail_slo = machine.slo.availability(
        "served", target=CONTROL_AVAILABILITY, **windows,
    )

    def on_latency(request, latency_us):
        avail_slo.record(True)
        if request.rtype == GET:
            lat_sketch.observe(latency_us)
            lat_slo.observe(latency_us)

    gen.on_latency = on_latency

    # Dropped requests spend the availability budget: DROP decisions at
    # SOCKET_SELECT (the shed valve) plus socket-backlog drops, sampled
    # as a cumulative signal and recorded as the per-tick delta.
    seen = {"drops": 0}

    def read_drops():
        total = (machine.netstack.drops["select_drop"]
                 + server.total_socket_drops())
        if total > seen["drops"]:
            avail_slo.record(False, n=total - seen["drops"])
        seen["drops"] = total
        return total

    controller = ShedController(lat_slo, avail_slo, shed_map)
    shed = {"peak": 0}

    def shed_and_track():
        controller()
        shed["peak"] = max(shed["peak"], controller.level)

    bus = machine.signals
    # The bus must stop re-arming once the workload ends, or it and the
    # flight recorder would keep the heap alive forever.
    bus.active = lambda: machine.now < duration_us
    bus.add_signal("dropped_total", read_drops)
    bus.add_signal(
        "get_p99_us", lambda: lat_sketch.percentile(99.0),
        publish=lambda v: registry.gauge(
            "rocksdb", "signals", "get_p99_us").set(v),
    )
    bus.add_signal("queue_depth",
                   lambda: sum(len(s) for s in server.sockets))
    bus.add_controller("slo_publish", lambda: machine.slo.publish(registry))
    bus.add_controller("shed", shed_and_track)
    bus.add_controller("srpt_thresh",
                       SrptThresholdController(svc_sketch, thresh_map))
    bus.add_controller(
        "blame",
        BlameController(server.sockets, blame_map, scan_map=server.scan_map),
    )
    return shed


# ----------------------------------------------------------------------
GHOST_THREADS = 36


def stage_ghost_cross_layer(seed, quick):
    """Figure 8 ``both``: SCAN Avoid + ghOSt GET priority through Maps."""
    duration_us = scaled(5_000_000.0, quick)
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT,
                {"NUM_THREADS": GHOST_THREADS}),
        thread_policy_factory=lambda server: GetPriorityPolicy(
            server.type_map),
        num_threads=GHOST_THREADS, scheduler="ghost",
        mark_scans=True, mark_types=True, seed=seed,
    )
    gen = testbed.drive(10_000, GET_SCAN_50_50, duration_us,
                        duration_us * WARMUP_FRACTION).start()
    scheduler = testbed.machine.scheduler
    probes = machine_probes(testbed)
    probes.update({
        "ghost_messages": lambda: scheduler.agent.messages_processed,
        "ghost_commits": lambda: scheduler.agent.commits,
        "ghost_failed_commits": lambda: scheduler.agent.failed_commits,
    })
    return Staged(
        testbed.machine, duration_us,
        lambda: machine_outcome(testbed, gen, duration_us, no_drops),
        probes,
    )


# ----------------------------------------------------------------------
def stage_fleet_rack(seed, quick):
    """100 aggregate machines behind a ToR running a verified program."""
    duration_us = scaled(260_000.0, quick)
    plan = FaultPlan(seed=11).machine_kill(
        33, at_us=duration_us * 0.4, restore_at_us=duration_us * 0.75,
    )
    fleet = Fleet(
        num_machines=100, seed=seed, steering="program_p2c", faults=plan,
        warmup_us=duration_us * WARMUP_FRACTION,
    )
    fleet.drive(
        duration_us=duration_us, rps=1_200_000, num_users=1_000_000,
        diurnal_period_us=duration_us, diurnal_depth=0.4,
    )

    def finish():
        offered = fleet.generator.offered
        fingerprint = {
            "events": fleet.engine.events_dispatched,
            "offered": offered,
            "completed": fleet.completed,
            "dropped": fleet.dropped,
            "resteers": fleet.switch.resteers,
            "p50_us": fleet.latency.p50(),
            "p99_us": fleet.latency.p99(),
            "max_served": max(m.served for m in fleet.machines),
        }
        checks = [
            (not fleet.dropped, f"expected zero lost, got {fleet.dropped}"),
            (fleet.switch.resteers > 0,
             "the machine kill re-steered nothing"),
            (offered == fleet.completed + fleet.dropped,
             f"{offered - fleet.completed - fleet.dropped} requests neither "
             "completed nor dropped"),
            (not fleet.engine.pending() and not fleet.outstanding,
             f"not drained: {fleet.engine.pending()} events pending, "
             f"{fleet.outstanding} requests outstanding"),
        ]
        return Outcome(offered, fingerprint,
                       [text for ok, text in checks if not ok])

    return Staged(fleet, duration_us, finish, {
        "events": lambda: fleet.engine.events_dispatched,
        "resteers": lambda: fleet.switch.resteers,
    })


# ----------------------------------------------------------------------
CHURN_INTERVAL_US = 250.0
CHURN_ROTATION = (ROUND_ROBIN, HASH_BY_FLOW, SCAN_AVOID)
CHURN_CONSTANTS = {"NUM_THREADS": 6, "NUM_EXECUTORS": 6}
CHURN_QDISC_EVERY = 4


def stage_deploy_churn(seed, quick):
    """The eBPF layer written, not read: a redeploy every 250 us of
    simulated time, and a qdisc attached or detached on every 4th."""
    duration_us = scaled(840_000.0, quick)
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
        mark_scans=True, mark_sizes=True, num_threads=6, seed=seed,
    )
    machine = testbed.machine
    app = testbed.app
    gen = testbed.drive(60_000, GET_SCAN_995_005, duration_us,
                        duration_us * WARMUP_FRACTION).start()
    churn = {"swaps": 0, "qdisc_deploys": 0, "qdisc_on": False}

    def swap():
        if machine.now >= duration_us:
            return
        source = CHURN_ROTATION[churn["swaps"] % len(CHURN_ROTATION)]
        app.redeploy_policy(source, Hook.SOCKET_SELECT,
                            constants=CHURN_CONSTANTS)
        churn["swaps"] += 1
        if churn["swaps"] % CHURN_QDISC_EVERY == 0:
            if churn["qdisc_on"]:
                app.undeploy_qdisc("socket")
            else:
                app.deploy_qdisc(SRPT_BY_SIZE, "socket")
                churn["qdisc_deploys"] += 1
            churn["qdisc_on"] = not churn["qdisc_on"]
        machine.engine.schedule(CHURN_INTERVAL_US, swap)

    machine.engine.schedule(CHURN_INTERVAL_US, swap)
    scheduled_swaps = math.ceil(duration_us / CHURN_INTERVAL_US) - 1

    def guards(fingerprint):
        sick = [row for row in machine.syrupd.health()
                if row["state"] != "active" or row.get("rollbacks")]
        return no_drops(fingerprint) + [
            (churn["swaps"] == scheduled_swaps,
             f"{churn['swaps']} swaps, schedule says {scheduled_swaps}"),
            (not sick, f"rollbacks or quarantines: {sick}"),
        ]

    return Staged(
        machine, duration_us,
        lambda: machine_outcome(
            testbed, gen, duration_us, guards,
            extra=lambda: {"swaps": churn["swaps"],
                           "qdisc_deploys": churn["qdisc_deploys"]}),
        machine_probes(testbed),
    )


WORKLOADS = {
    "rocksdb_steady": stage_rocksdb_steady,
    "control_loop": stage_control_loop,
    "ghost_cross_layer": stage_ghost_cross_layer,
    "fleet_rack": stage_fleet_rack,
    "deploy_churn": stage_deploy_churn,
}
