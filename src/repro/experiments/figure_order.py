"""figure_order: queue *ordering* across the stack (paper §4, qdisc layer).

Figures 2/6/7 pick **which executor** a packet goes to; this experiment
holds the dispatch policy fixed (Vanilla Linux socket select) and varies
**in what order each socket backlog drains**, using the programmable
queueing-discipline layer (:mod:`repro.qdisc`).

Three disciplines on the bimodal RocksDB 99.5% GET / 0.5% SCAN mix:

- ``fifo`` — no discipline deployed; the stock drop-tail deque.
- ``srpt_pifo`` — :data:`repro.qdisc.policies.SRPT_BY_SIZE` rank function
  on the exact PIFO backend: rank = observed service time per request
  type (published into ``svc_time_map`` by the server's userspace half),
  so ~11 us GETs always dequeue ahead of ~700 us SCANs.
- ``srpt_bucket`` — the same rank function on the Eiffel-style bucketed
  backend (O(1) FFS dequeue); coarse buckets make same-size requests
  FIFO among themselves, trading exact SRPT order for fairness.

Expected story: under FIFO a GET's p99 is dominated by the SCANs queued
ahead of it (head-of-line blocking); SRPT collapses short-request tails
once queues actually form (200K+ RPS) and eliminates the overflow drops
FIFO takes near saturation, with both backends reported so exact-vs-
bucketed fidelity is visible in one table (the bucketed backend's
within-bucket FIFO typically *helps* the GET tail — exact SRPT reorders
equal-size GETs by the jitter in their measured service times).
"""

from repro.experiments.runner import RocksDbTestbed, run_point
from repro.qdisc.policies import SRPT_BY_SIZE
from repro.stats.results import Table
from repro.workload.mixes import GET_SCAN_995_005
from repro.workload.requests import GET, SCAN

__all__ = ["DEFAULT_LOADS", "DISCIPLINES", "run_figure_order", "testbed"]

#: Queues are near-empty below ~160K RPS (ordering can't help an empty
#: queue); 280K is just past where FIFO starts shedding load.
DEFAULT_LOADS = [120_000, 200_000, 240_000, 280_000]

N = 6

#: discipline name -> the RocksDbTestbed ``qdisc`` tuple (None = stock FIFO).
DISCIPLINES = {
    "fifo": None,
    "srpt_pifo": (SRPT_BY_SIZE, "socket", "pifo"),
    "srpt_bucket": (SRPT_BY_SIZE, "socket", "bucket"),
}


def testbed(name, seed=3, **overrides):
    """A fresh six-thread RocksDB testbed under the named discipline.

    Requests carry their size marks exactly when a rank function is
    deployed to read them.  ``overrides`` are further
    :class:`RocksDbTestbed` keywords (telemetry tiers).
    """
    spec = DISCIPLINES[name]
    return RocksDbTestbed(
        qdisc=spec, mark_sizes=spec is not None, num_threads=N, seed=seed,
        **overrides,
    )


def run_figure_order(
    loads=None,
    duration_us=300_000.0,
    warmup_us=60_000.0,
    seed=3,
    disciplines=None,
):
    """One row per (discipline, load); ``get_p99_vs_fifo`` is the ratio
    of the discipline's GET p99 to FIFO's at the same load (<1 = better)."""
    loads = loads or DEFAULT_LOADS
    names = disciplines or list(DISCIPLINES)
    table = Table(
        "figure_order: RocksDB 99.5% GET / 0.5% SCAN, socket-backlog order",
        ["discipline", "backend", "load_rps", "p99_us", "get_p99_us",
         "scan_p99_us", "drop_pct", "get_p99_vs_fifo"],
    )
    fifo_get_p99 = {}
    for name in names:
        spec = DISCIPLINES[name]
        for load in loads:
            _tb, gen = run_point(
                lambda: testbed(name, seed),
                load, GET_SCAN_995_005, duration_us, warmup_us,
            )
            get_p99 = gen.latency.p99(tag=GET)
            if spec is None:
                fifo_get_p99[load] = get_p99
            baseline = fifo_get_p99.get(load)
            table.add(
                discipline=name,
                backend=spec[2] if spec is not None else "-",
                load_rps=load,
                p99_us=gen.latency.p99(),
                get_p99_us=get_p99,
                scan_p99_us=gen.latency.p99(tag=SCAN),
                drop_pct=100.0 * gen.drop_fraction(),
                get_p99_vs_fifo=(
                    None if baseline is None or not baseline
                    else get_p99 / baseline
                ),
            )
    return table
