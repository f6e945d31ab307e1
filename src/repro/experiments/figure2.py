"""Figure 2: RocksDB, 100% GET — Vanilla Linux vs Round Robin.

Paper claim: hash-based socket selection over 50 flows and 6 sockets
overloads unlucky sockets, causing dropped requests and noisy >1 ms 99%
latency above ~250K RPS; a 6-line round-robin Syrup policy eliminates drops
and holds sub-200 us tails to a load ~80% higher.
"""

from repro.core.hooks import Hook
from repro.experiments.runner import RocksDbTestbed, run_point
from repro.policies.builtin import ROUND_ROBIN
from repro.stats.results import Table
from repro.workload.mixes import GET_ONLY

__all__ = ["DEFAULT_LOADS", "POLICIES", "run_figure2", "testbed"]

DEFAULT_LOADS = [50_000 * i for i in range(1, 11)]  # 50K..500K RPS

POLICIES = {
    "vanilla": None,
    "round_robin": (ROUND_ROBIN, Hook.SOCKET_SELECT, {"NUM_THREADS": 6}),
}


def testbed(name, seed=2, **overrides):
    """A fresh RocksDB testbed under the named policy.

    ``overrides`` are further :class:`RocksDbTestbed` keywords (thread
    count, telemetry tiers).
    """
    return RocksDbTestbed(policy=POLICIES[name], seed=seed, **overrides)


def run_figure2(
    loads=None,
    duration_us=300_000.0,
    warmup_us=60_000.0,
    num_threads=6,
    seed=2,
    policies=None,
):
    loads = loads or DEFAULT_LOADS
    names = policies or list(POLICIES)
    table = Table(
        "Figure 2: RocksDB 100% GET (99% latency, % dropped)",
        ["policy", "load_rps", "p99_us", "drop_pct", "goodput_rps"],
    )
    for name in names:
        for load in loads:
            _tb, gen = run_point(
                lambda: testbed(name, seed, num_threads=num_threads),
                load, GET_ONLY, duration_us, warmup_us,
            )
            table.add(
                policy=name,
                load_rps=load,
                p99_us=gen.latency.p99(),
                drop_pct=100.0 * gen.drop_fraction(),
                goodput_rps=gen.goodput_rps(duration_us),
            )
    return table
