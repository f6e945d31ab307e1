"""figure_oversub: no static core split survives anti-correlated bursts.

Two apps share one oversubscribed machine.  **search** runs under a
ghOSt enclave (FIFO thread policy via the Thread Scheduler hook);
**batch** runs under CFS with a heavy-tailed bounded-Pareto service
distribution.  One machine core is reserved for the spinning ghOSt
agent; the remaining cores form the :class:`~repro.kernel.arbiter.
CoreArbiter`'s pool.  Demand is *traffic weather*
(:mod:`repro.workload.weather`): each app idles at a modest baseline
and takes a 10x flash-crowd burst — search early in the run, batch
late, so their peaks never overlap.  Peak demand per app (~3.3 cores)
exceeds any static share either app can be given while the other keeps
its floor — but the *sum* of demand at every instant fits the machine.

That is the oversubscription dilemma in miniature:

- every **static** split ``(search, batch)`` of the arbitrated pool
  leaves at least one app under-provisioned during its burst, and that
  app's p99 blows through the SLO while queues cap out and drop;
- **elastic** arbitration (the
  :class:`~repro.kernel.arbiter.ElasticCoreController` on the PR-7
  SignalBus, per-class pressure signals, floors of one core each,
  two-tick hysteresis) follows the bursts, re-granting cores from the
  quiet class to the loud one, and both apps meet the same SLO.

Static variants run the *same* elastic machinery with pinned initial
grants and no controller, so the comparison isolates exactly one
variable: whether grants may move.  ``slo_met`` is judged on measured
end-of-run stats (per-app p99 against :data:`SLO_P99_US`), never on
the controller's opinion.  Determinism: seeded RNG streams everywhere;
reruns are bit-identical.
"""

from repro.core.hooks import Hook
from repro.apps.rocksdb import RocksDbServer
from repro.machine import Machine
from repro.config import set_a
from repro.kernel.arbiter import ElasticCoreController, ElasticSpec
from repro.policies.thread_policies import FifoThreadPolicy
from repro.stats.results import Table
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_ONLY, GET_PARETO
from repro.workload.weather import FlashCrowd

__all__ = [
    "BASE_RPS",
    "PEAK_FACTOR",
    "SLO_P99_US",
    "VARIANTS",
    "run_figure_oversub",
    "run_variant",
    "stage_variant",
]

#: Both apps' latency objective: p99 within 5 ms.  Sized so elastic
#: reallocation transients (a few hundred queued requests while cores
#: move) pass with headroom while a sustained under-provisioned burst
#: (queues capped at the socket backlog, ~10 ms of latency) fails by 2x.
SLO_P99_US = 5_000.0

#: Baseline offered load per app (≈ 0.33 cores at ~13 us/request).
BASE_RPS = 25_000
#: Flash-crowd multiplier: 10x baseline ≈ 3.3 cores of demand — more
#: than any static share can spare, less than the machine minus the
#: other app's floor.
PEAK_FACTOR = 10.0

#: Static splits of the 5-core arbitrated pool (search, batch), plus
#: the elastic controller.
VARIANTS = ("static_1_4", "static_2_3", "static_3_2", "static_4_1",
            "elastic")

N_THREADS = 6
SEARCH_PORT, BATCH_PORT = 8080, 8081
SIGNAL_INTERVAL_US = 2_000.0
HYSTERESIS_TICKS = 2

#: Burst geometry, as fractions of the run: search bursts over
#: [0.15, 0.50] of the run, batch over [0.55, 0.90] — anti-correlated,
#: never overlapping.
SEARCH_BURST_START, BATCH_BURST_START = 0.15, 0.55
BURST_RAMP, BURST_HOLD = 0.075, 0.20


def _split_of(name, pool_size):
    """(search_cores, batch_cores) for a variant name; None = elastic."""
    if name == "elastic":
        return None
    _static, search, batch = name.split("_")
    search, batch = int(search), int(batch)
    if search + batch != pool_size:
        raise ValueError(
            f"{name}: split must cover the {pool_size}-core pool"
        )
    return search, batch


def stage_variant(name, base_rps, peak_factor, duration_us, warmup_us,
                  seed):
    """Build and wire one variant; generators started, machine NOT run.

    Returns ``(machine, gen_search, gen_batch, controller)`` —
    ``controller`` is None for static splits.  The bench harness uses
    this staged form so it owns the timed ``machine.run()``.
    """
    config = set_a()
    pool_size = config.num_app_cores - 1  # one core feeds the agent
    split = _split_of(name, pool_size)
    elastic = split is None
    spec = (
        ElasticSpec()
        .ghost("search", floor=1, tenant="search",
               initial=None if elastic else split[0])
        .cfs("batch", apps=("batch",), floor=1, tenant="batch",
             initial=None if elastic else split[1], default=True)
    )
    machine = Machine(
        config, seed=seed, scheduler="elastic", elastic=spec,
        signals=SIGNAL_INTERVAL_US if elastic else None,
        accounting=True,
    )
    search_app = machine.register_app("search", ports=[SEARCH_PORT])
    batch_app = machine.register_app("batch", ports=[BATCH_PORT])
    search_srv = RocksDbServer(machine, search_app, SEARCH_PORT,
                               num_threads=N_THREADS)
    batch_srv = RocksDbServer(machine, batch_app, BATCH_PORT,
                              num_threads=N_THREADS)
    search_app.deploy_policy(FifoThreadPolicy(), Hook.THREAD_SCHED)
    controller = None
    bus = machine.signals  # on exactly when elastic
    if bus is not None:
        controller = ElasticCoreController(
            machine.arbiter, hysteresis_ticks=HYSTERESIS_TICKS
        ).register(bus)
        bus.active = lambda m=machine: m.engine.now < duration_us

    def burst(start_frac):
        return FlashCrowd(
            start_us=start_frac * duration_us,
            ramp_us=BURST_RAMP * duration_us,
            hold_us=BURST_HOLD * duration_us,
            peak=peak_factor,
        )

    gen_search = OpenLoopGenerator(
        machine, SEARCH_PORT, base_rps, GET_ONLY, duration_us, warmup_us,
        stream="search", user_id=1, tenant="search",
        envelope=burst(SEARCH_BURST_START),
    )
    gen_batch = OpenLoopGenerator(
        machine, BATCH_PORT, base_rps, GET_PARETO, duration_us, warmup_us,
        stream="batch", user_id=2, tenant="batch",
        envelope=burst(BATCH_BURST_START),
    )
    search_srv.response_sink = gen_search.deliver_response
    batch_srv.response_sink = gen_batch.deliver_response
    gen_search.start()
    gen_batch.start()
    return machine, gen_search, gen_batch, controller


def run_variant(name, base_rps, peak_factor, duration_us, warmup_us,
                seed):
    """:func:`stage_variant`, run to completion, occupancy settled."""
    staged = stage_variant(name, base_rps, peak_factor, duration_us,
                           warmup_us, seed)
    staged[0].run()
    staged[0].arbiter.settle()
    return staged


def run_figure_oversub(
    duration_us=400_000.0,
    warmup_us=40_000.0,
    seed=5,
    variants=None,
    base_rps=BASE_RPS,
    peak_factor=PEAK_FACTOR,
):
    """One row per variant; see the module docstring."""
    names = variants or list(VARIANTS)
    table = Table(
        "figure_oversub: static core splits vs elastic arbitration under "
        f"anti-correlated flash crowds (SLO: p99<={SLO_P99_US:.0f}us "
        "per app)",
        ["variant", "search_cores", "batch_cores", "search_p99_us",
         "batch_p99_us", "search_drop_pct", "batch_drop_pct",
         "core_moves", "search_occ_cores", "batch_occ_cores",
         "search_slo_met", "batch_slo_met", "slo_met"],
    )
    for name in names:
        machine, gen_search, gen_batch, _controller = run_variant(
            name, base_rps, peak_factor, duration_us, warmup_us, seed
        )
        arbiter = machine.arbiter
        alloc = arbiter.allocation()
        elapsed = max(machine.now, 1e-9)
        search_p99 = gen_search.latency.p99()
        batch_p99 = gen_batch.latency.p99()
        search_met = search_p99 <= SLO_P99_US
        batch_met = batch_p99 <= SLO_P99_US
        table.add(
            variant=name,
            search_cores=len(alloc["search"]),
            batch_cores=len(alloc["batch"]),
            search_p99_us=search_p99,
            batch_p99_us=batch_p99,
            search_drop_pct=100.0 * gen_search.drop_fraction(),
            batch_drop_pct=100.0 * gen_batch.drop_fraction(),
            core_moves=arbiter.moves,
            search_occ_cores=arbiter.occupancy_us("search") / elapsed,
            batch_occ_cores=arbiter.occupancy_us("batch") / elapsed,
            search_slo_met=search_met,
            batch_slo_met=batch_met,
            slo_met=search_met and batch_met,
        )
    return table
