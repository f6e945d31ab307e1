"""Shared experiment plumbing.

The staging convention every experiment module follows: a ``stage_*``
function builds the system, attaches the load and wires any control
loop — generators started, **nothing run** — and the matching ``run_*``
is that plus ``run()``.  ``syrupctl`` views and the golden scenarios of
``tests/test_golden_scenarios.py`` consume the staged form (they own the
run and what is read after it); the figures consume the run form.
"""

from repro.config import set_a
from repro.core.hooks import Hook
from repro.machine import Machine
from repro.apps.rocksdb import RocksDbServer
from repro.workload.generator import OpenLoopGenerator
from repro.workload.requests import GET

__all__ = [
    "SLO_AVAILABILITY_TARGET",
    "RocksDbTestbed",
    "run_point",
    "stage_point",
    "wire_slo_sensors",
]

#: The availability objective every closed-loop figure signs: serve at
#: least this fraction of requests (the 1% error budget is what a shed
#: controller is allowed to spend).
SLO_AVAILABILITY_TARGET = 0.99


class RocksDbTestbed:
    """One RocksDB server machine + load generator, policy-parameterized.

    ``policy`` is ``None`` (Vanilla Linux) or a tuple
    ``(source, hook, constants)``; the thread policy (ghOSt) is supplied
    separately as a factory taking the server (so it can grab map handles).
    ``qdisc`` optionally deploys a queueing discipline
    (:mod:`repro.qdisc`) after the server's sockets exist: a tuple
    ``(rank_source, layer, backend)`` or ``(rank_source, layer, backend,
    constants)``.
    """

    def __init__(
        self,
        policy=None,
        thread_policy_factory=None,
        num_threads=6,
        config=None,
        scheduler="pinned",
        seed=1,
        port=8080,
        mark_scans=False,
        mark_types=False,
        mark_sizes=False,
        qdisc=None,
        metrics=False,
        timeseries=None,
        faults=None,
        health=None,
        spans=None,
        spans_capacity=4096,
        signals=None,
        slo=None,
        accounting=False,
    ):
        self.machine = Machine(
            config if config is not None else set_a(), seed=seed,
            scheduler=scheduler, metrics=metrics, timeseries=timeseries,
            faults=faults, health=health, spans=spans,
            spans_capacity=spans_capacity, signals=signals, slo=slo,
            accounting=accounting,
        )
        self.app = self.machine.register_app("rocksdb", ports=[port])
        self.server = RocksDbServer(
            self.machine, self.app, port, num_threads,
            mark_scans=mark_scans, mark_types=mark_types,
            mark_sizes=mark_sizes,
        )
        self.port = port
        self._generators = []
        if policy is not None:
            source, hook, constants = policy
            self.app.deploy_policy(source, hook, constants=constants)
        if thread_policy_factory is not None:
            thread_policy = thread_policy_factory(self.server)
            self.app.deploy_policy(thread_policy, Hook.THREAD_SCHED)
        if qdisc is not None:
            rank_source, layer, backend = qdisc[:3]
            constants = qdisc[3] if len(qdisc) > 3 else None
            self.app.deploy_qdisc(
                rank_source, layer, backend=backend, constants=constants
            )

    def drive(self, rate_rps, mix, duration_us, warmup_us, stream="client",
              user_id=0, tenant=None):
        """Attach a load generator; call once per client for co-located
        runs.  With one generator the response sink is the generator
        itself; with several, a dispatcher routes each completion back to
        the generator that sent it by ``(request.tenant,
        request.user_id)``, so two generators may not share both."""
        if any((g.tenant, g.user_id) == (tenant, user_id)
               for g in self._generators):
            raise ValueError(
                f"a generator for tenant {tenant!r}, user {user_id} is "
                "already attached; give each a distinct user_id"
            )
        gen = OpenLoopGenerator(
            self.machine, self.port, rate_rps, mix,
            duration_us=duration_us, warmup_us=warmup_us, stream=stream,
            user_id=user_id, tenant=tenant,
        )
        self._generators.append(gen)
        if len(self._generators) == 1:
            self.server.response_sink = gen.deliver_response
        else:
            by_client = {
                (g.tenant, g.user_id): g.deliver_response
                for g in self._generators
            }

            def _dispatch(request):
                by_client[request.tenant, request.user_id](request)

            self.server.response_sink = _dispatch
        return gen


def stage_point(testbed_factory, rate_rps, mix, duration_us, warmup_us,
                tenant=None):
    """Build a fresh testbed and start one load point; machine NOT run.

    Returns ``(testbed, gen)``.  ``tenant`` labels the generator's
    requests for per-tenant accounting.
    """
    testbed = testbed_factory()
    gen = testbed.drive(rate_rps, mix, duration_us, warmup_us,
                        tenant=tenant).start()
    return testbed, gen


def run_point(testbed_factory, rate_rps, mix, duration_us, warmup_us):
    """Build a fresh testbed, drive one load point to completion."""
    staged = stage_point(testbed_factory, rate_rps, mix, duration_us,
                         warmup_us)
    staged[0].machine.run()
    return staged


def wire_slo_sensors(machine, gen, threshold_us, read_drop_total,
                     prefix="", publish_p99=True):
    """The SLO sensor block every closed-loop figure shares.

    Registers, on a machine built with ``metrics``/``signals``/``slo``:
    a GET-latency sketch ``<prefix>get_latency_us`` and the two
    objectives ``<prefix>get_p99`` (99% of GETs within
    ``threshold_us``) and ``<prefix>served``
    (:data:`SLO_AVAILABILITY_TARGET`), both fed from ``gen``'s
    completion callback; the ``<prefix>dropped_total`` signal, which
    samples the cumulative ``read_drop_total()`` and books each tick's
    delta as bad events against the availability budget; the
    ``<prefix>get_p99_us`` signal (also published as a registry gauge
    when ``publish_p99``); and the ``slo_publish`` controller.

    Registration order is part of the contract — it fixes metric-series
    and signal order in every export.  Returns ``(lat_slo, avail_slo)``;
    callers add their own signals and controllers after.
    """
    registry, bus = machine.obs.registry, machine.signals
    assert registry is not None and bus is not None  # metrics + signals on
    lat_sketch = registry.sketch(
        "rocksdb", "client", f"{prefix}get_latency_us")
    lat_slo = machine.slo.latency(
        f"{prefix}get_p99", threshold_us=threshold_us, target=0.99,
        short_window_us=20_000.0, long_window_us=80_000.0,
        page_burn=5.0, warn_burn=1.0,
    )
    avail_slo = machine.slo.availability(
        f"{prefix}served", target=SLO_AVAILABILITY_TARGET,
        short_window_us=20_000.0, long_window_us=80_000.0,
    )

    def on_latency(request, latency_us):
        avail_slo.record(True)
        if request.rtype == GET:
            lat_sketch.observe(latency_us)
            lat_slo.observe(latency_us)

    gen.on_latency = on_latency

    seen = {"drops": 0}

    def read_drops():
        total = read_drop_total()
        delta = total - seen["drops"]
        if delta > 0:
            avail_slo.record(False, n=delta)
        seen["drops"] = total
        return total

    bus.add_signal(f"{prefix}dropped_total", read_drops)
    p99_name = f"{prefix}get_p99_us"
    bus.add_signal(
        p99_name,
        lambda: lat_sketch.percentile(99.0),
        publish=(
            (lambda v: registry.gauge("rocksdb", "signals", p99_name).set(v))
            if publish_p99 else None
        ),
    )
    bus.add_controller("slo_publish",
                       lambda: machine.slo.publish(registry))
    return lat_slo, avail_slo
