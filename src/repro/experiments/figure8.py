"""Figure 8: cross-layer scheduling — 50% GET / 50% SCAN, 36 threads/6 cores.

Three variants (paper §5.3):

- **scan_avoid** — SCAN Avoid at the Socket Select layer only; threads run
  under the CFS-like baseline.  GET tails explode around mid load because
  CFS won't preempt cores running SCAN threads for a woken GET thread.
- **thread_sched** — ghOSt GET-priority thread scheduling only (one core
  lost to the agent); GET tails stay high (>800 us) even at low load since
  GETs still queue behind SCANs inside individual sockets.
- **both** — the two policies cooperating through Syrup Maps: sub-500 us
  GET tails to ~60% higher load than either alone.
"""

from repro.core.hooks import Hook
from repro.experiments.runner import RocksDbTestbed
from repro.policies.builtin import SCAN_AVOID
from repro.policies.thread_policies import GetPriorityPolicy
from repro.stats.results import Table
from repro.workload.mixes import GET_SCAN_50_50
from repro.workload.requests import GET, SCAN

__all__ = [
    "DEFAULT_LOADS",
    "run_figure8",
    "run_figure8_dynamic",
    "stage_dynamic",
]

DEFAULT_LOADS = [1_000 * i for i in (1, 2, 4, 6, 8, 10, 12, 14)]

NUM_THREADS = 36
NUM_CORES = 6


def _get_priority_factory(server):
    return GetPriorityPolicy(server.type_map)


VARIANTS = {
    "scan_avoid": dict(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": NUM_THREADS}),
        scheduler="cfs",
        mark_scans=True,
    ),
    "thread_sched": dict(
        policy=None,
        scheduler="ghost",
        mark_types=True,
        thread_policy_factory=_get_priority_factory,
    ),
    "both": dict(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": NUM_THREADS}),
        scheduler="ghost",
        mark_scans=True,
        mark_types=True,
        thread_policy_factory=_get_priority_factory,
    ),
}


def run_figure8(
    loads=None,
    duration_us=1_000_000.0,
    warmup_us=200_000.0,
    seed=5,
    variants=None,
):
    loads = loads or DEFAULT_LOADS
    names = variants or list(VARIANTS)
    table = Table(
        "Figure 8: 50% GET / 50% SCAN cross-layer scheduling (99% latency)",
        ["variant", "load_rps", "get_p99_us", "scan_p99_us",
         "goodput_rps", "drop_pct"],
    )
    for name in names:
        spec = VARIANTS[name]
        for load in loads:
            testbed = RocksDbTestbed(
                policy=spec.get("policy"),
                thread_policy_factory=spec.get("thread_policy_factory"),
                num_threads=NUM_THREADS,
                scheduler=spec["scheduler"],
                mark_scans=spec.get("mark_scans", False),
                mark_types=spec.get("mark_types", False),
                seed=seed,
            )
            gen = testbed.drive(
                load, GET_SCAN_50_50, duration_us, warmup_us
            ).start()
            testbed.machine.run()
            table.add(
                variant=name,
                load_rps=load,
                get_p99_us=gen.latency.p99(tag=GET),
                scan_p99_us=gen.latency.p99(tag=SCAN),
                goodput_rps=gen.goodput_rps(duration_us),
                drop_pct=100.0 * gen.drop_fraction(),
            )
    return table


def stage_dynamic(load=6_000, duration_us=600_000.0, warmup_us=0.0,
                  switch_at_us=None, seed=5, metrics=False, timeseries=None,
                  num_threads=NUM_THREADS):
    """The dynamic Figure-8 scenario: a policy switch *mid-run*.

    Starts on Vanilla Linux (hash socket selection, CFS threads) under
    the 50/50 GET/SCAN mix — GET tails pay SCAN head-of-line blocking —
    then deploys SCAN Avoid at the Socket Select hook at ``switch_at_us``
    (default: halfway), without pausing the run.  This is the
    time-dynamics demo: with ``metrics=True, timeseries=<interval_us>``
    the machine's flight recorder captures ``schedule_calls``/``steer``
    rates jumping from zero at the switch instant, which
    ``syrupctl timeline`` renders as sparklines.

    Returns ``(testbed, gen)`` with everything staged (load scheduled,
    switch armed) but the machine left unrun, so a harness can own the
    run itself (``syrupctl timeline``, ``tests/test_golden_scenarios.py``).
    """
    switch_at = switch_at_us if switch_at_us is not None else duration_us / 2.0
    testbed = RocksDbTestbed(
        policy=None,
        num_threads=num_threads,
        scheduler="cfs",
        mark_scans=True,
        seed=seed,
        metrics=metrics,
        timeseries=timeseries,
    )

    def _switch():
        testbed.app.deploy_policy(
            SCAN_AVOID, Hook.SOCKET_SELECT,
            constants={"NUM_THREADS": num_threads},
        )

    testbed.machine.engine.post_at(switch_at, _switch)
    gen = testbed.drive(load, GET_SCAN_50_50, duration_us, warmup_us)
    gen.start()
    return testbed, gen


def run_figure8_dynamic(
    load=6_000,
    duration_us=600_000.0,
    warmup_us=0.0,
    switch_at_us=None,
    seed=5,
    metrics=False,
    timeseries=None,
    num_threads=NUM_THREADS,
):
    """:func:`stage_dynamic`, then run the machine to completion."""
    staged = stage_dynamic(load, duration_us, warmup_us, switch_at_us, seed,
                           metrics, timeseries, num_threads)
    staged[0].machine.run()
    return staged
