"""Fault sweep: figure6's workload under an injected-fault plan.

The robustness companion to Figure 6 (docs/robustness.md): the SCAN
Avoid deployment runs the 99.5% GET / 0.5% SCAN mix while a seeded
:class:`repro.faults.FaultPlan` makes its Socket Select program raise
runtime faults at a configurable rate.  Three variants:

- **vanilla** — no policy, no faults: the kernel-default baseline the
  degraded system should approach.
- **no_quarantine** — faults injected, lifecycle quarantine disabled
  (``HealthPolicy(quarantine=False)``): every fault costs the app a
  request (the XDP_ABORTED drop), burning the tail for the whole run.
- **quarantine** — same plan, quarantine enabled: syrupd uninstalls the
  sick policy once ``max_faults`` land within ``window_us``, traffic
  reverts to the default socket hash, and the tail degrades to
  (noisy) vanilla behaviour instead of collapsing.

Run via ``python -m repro figure_faults``; the integration test
(tests/test_health.py) asserts the quarantine-on/off contrast on a
miniature grid.
"""

from repro.core.health import HealthPolicy
from repro.core.hooks import Hook
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.faults import FaultPlan
from repro.policies.builtin import SCAN_AVOID
from repro.stats.results import Table
from repro.workload.mixes import GET_SCAN_995_005
from repro.workload.requests import GET

__all__ = ["DEFAULT_LOADS", "VARIANTS", "run_figure_faults", "testbed"]

DEFAULT_LOADS = [50_000, 100_000, 150_000]

N = 6

VARIANTS = ("vanilla", "no_quarantine", "quarantine")


def testbed(name, seed=3, fault_rate=0.02, fault_start_us=0.0,
            plan_seed=11, window_us=20_000.0, max_faults=8):
    """A fresh metrics-on RocksDB testbed for the named variant.

    ``vanilla`` has no policy and no faults; the other two run SCAN
    Avoid under a seeded plan raising runtime faults in its Socket
    Select program at ``fault_rate`` from ``fault_start_us``, with the
    lifecycle's sliding-window quarantine (``max_faults`` within
    ``window_us``) on only for ``quarantine``.
    """
    if name == "vanilla":
        return RocksDbTestbed(
            policy=None, num_threads=N, seed=seed, metrics=True,
        )
    plan = FaultPlan(seed=plan_seed).vmfault(
        fault_rate, app="rocksdb", hook=Hook.SOCKET_SELECT,
        start_us=fault_start_us,
    )
    health = HealthPolicy(
        quarantine=(name == "quarantine"),
        window_us=window_us, max_faults=max_faults,
    )
    return RocksDbTestbed(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": N}),
        mark_scans=True, num_threads=N, seed=seed, metrics=True,
        faults=plan, health=health,
    )


def run_figure_faults(
    loads=None,
    duration_us=300_000.0,
    warmup_us=60_000.0,
    seed=3,
    fault_rate=0.02,
    fault_start_us=0.0,
    plan_seed=11,
    window_us=20_000.0,
    max_faults=8,
    variants=None,
):
    loads = loads or DEFAULT_LOADS
    names = variants or list(VARIANTS)
    table = Table(
        "Fault sweep: SCAN Avoid under injected policy runtime faults "
        f"(rate={fault_rate:g})",
        ["variant", "load_rps", "p99_us", "get_p99_us", "drop_pct",
         "runtime_faults", "quarantined"],
    )
    for name in names:
        for load in loads:
            staged, gen = run_point(
                lambda: testbed(name, seed, fault_rate, fault_start_us,
                                plan_seed, window_us, max_faults),
                load, GET_SCAN_995_005, duration_us, warmup_us,
            )
            health_rows = staged.machine.syrupd.health()
            faults = sum(r.get("runtime_faults", 0) for r in health_rows)
            quarantined = sum(
                1 for r in health_rows if r["state"] == "quarantined"
            )
            table.add(
                variant=name,
                load_rps=load,
                p99_us=gen.latency.p99(),
                get_p99_us=gen.latency.p99(tag=GET),
                drop_pct=100.0 * gen.drop_fraction(),
                runtime_faults=faults,
                quarantined=quarantined,
            )
    return table
