"""Figure 6: RocksDB 99.5% GET / 0.5% SCAN — four socket-select policies.

Paper claims: Vanilla Linux is noisy and >1 ms even at low load; Round
Robin raises usable throughput 124% but SCANs still inflict >1 ms tails
via head-of-line blocking; SCAN Avoid holds 99% latency <150 us to 150K
RPS (8x below vanilla); SITA holds low tails to ~310K RPS (>100% more than
SCAN Avoid).
"""

from repro.core.hooks import Hook
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.policies.builtin import ROUND_ROBIN, SCAN_AVOID, SITA
from repro.stats.results import Table
from repro.workload.mixes import GET_SCAN_995_005
from repro.workload.requests import GET, SCAN

__all__ = ["DEFAULT_LOADS", "POLICIES", "run_figure6", "testbed"]

DEFAULT_LOADS = [25_000] + [50_000 * i for i in range(1, 9)]  # to 400K

N = 6

POLICIES = {
    "vanilla": dict(policy=None),
    "round_robin": dict(
        policy=(ROUND_ROBIN, Hook.SOCKET_SELECT, {"NUM_THREADS": N})
    ),
    "scan_avoid": dict(
        policy=(SCAN_AVOID, Hook.SOCKET_SELECT, {"NUM_THREADS": N}),
        mark_scans=True,
    ),
    "sita": dict(
        policy=(SITA, Hook.SOCKET_SELECT,
                {"NUM_THREADS": N, "SCAN_TYPE": SCAN}),
    ),
}


def testbed(name, seed=3, **overrides):
    """A fresh six-thread RocksDB testbed under the named policy.

    ``overrides`` are further :class:`RocksDbTestbed` keywords (the
    telemetry tiers, mostly) layered over the policy's own spec.
    """
    return RocksDbTestbed(
        num_threads=N, seed=seed, **{**POLICIES[name], **overrides}
    )


def run_figure6(
    loads=None,
    duration_us=300_000.0,
    warmup_us=60_000.0,
    seed=3,
    policies=None,
):
    loads = loads or DEFAULT_LOADS
    names = policies or list(POLICIES)
    table = Table(
        "Figure 6: RocksDB 99.5% GET / 0.5% SCAN (99% latency)",
        ["policy", "load_rps", "p99_us", "get_p99_us", "drop_pct"],
    )
    for name in names:
        for load in loads:
            _tb, gen = run_point(
                lambda: testbed(name, seed),
                load, GET_SCAN_995_005, duration_us, warmup_us,
            )
            table.add(
                policy=name,
                load_rps=load,
                p99_us=gen.latency.p99(),
                get_p99_us=gen.latency.p99(tag=GET),
                drop_pct=100.0 * gen.drop_fraction(),
            )
    return table
