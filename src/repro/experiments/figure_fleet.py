"""Rack-scale steering sweep: the §6.1 extension at fleet scale.

A :class:`repro.cluster.fleet.Fleet` of aggregate machines (default 100,
4 workers each) serves a diurnally-modulated open-loop load from a
million sampled users while the ToR switch steers every request through
one policy per variant:

- **random** — uniform spray, the no-information baseline,
- **flow_hash** — stateless per-user hashing (the L4-LB default),
- **jsq** — join-the-shortest-queue over the *replicated* load view;
  looks optimal, herds under staleness,
- **power_of_two** — RackSched's power-of-two-choices, the stale-robust
  sampling policy,
- **sed** — shortest expected delay (load scaled by worker count),
- **program_p2c** — power-of-two as a *verified Syrup program* deployed
  at the switch, reading the replicated ``machine_load_array`` Map —
  the user-defined-scheduling-in-the-network headline.

Every variant runs the same :class:`~repro.faults.FaultPlan`: one
machine is killed mid-run (and rebooted later), so the table also shows
failover — requests orphaned on the corpse re-steer to live machines
after the switch's detection window, costing ``resteers`` but no loss.
The replicated views refresh on the sync-bus cadence
(``sync_interval_us``/``sync_delay_us``), which is the experiment's real
knob: crank the staleness up and jsq collapses while power-of-two holds.

Run via ``python -m repro fleet``; the miniature grid lives in
tests/test_fleet.py and the pinned ``figure_fleet_steering`` scenario in
tests/test_golden_scenarios.py.
"""

from repro.cluster.fleet import Fleet
from repro.faults import FaultPlan
from repro.stats.results import Table

__all__ = ["DEFAULT_VARIANTS", "run_figure_fleet", "stage_variant"]

DEFAULT_VARIANTS = ("random", "flow_hash", "jsq", "power_of_two", "sed",
                    "program_p2c")


def stage_variant(name, num_machines, rps, duration_us, warmup_us, seed,
                  num_users=1_000_000, diurnal_depth=0.4, kill_machine=None,
                  kill_at_frac=0.4, restore_at_frac=0.75, plan_seed=11,
                  **fleet_kwargs):
    """Build one rack under steering policy ``name``; load attached,
    fleet NOT run.

    ``kill_machine`` defaults to machine ``num_machines // 3`` (killed
    at ``kill_at_frac`` of the run, rebooted at ``restore_at_frac``);
    pass ``False`` to disable the mid-run kill entirely.
    ``fleet_kwargs`` go to :class:`~repro.cluster.fleet.Fleet` (worker
    count, sync-bus cadence, telemetry tiers).  Returns the driven
    :class:`~repro.cluster.fleet.Fleet`; the ``syrupctl fleet`` view
    and the bench harness use this staged form so they own the
    ``fleet.run()``.
    """
    plan = None
    if kill_machine is not False:
        victim = (num_machines // 3 if kill_machine is None
                  else kill_machine)
        plan = FaultPlan(seed=plan_seed).machine_kill(
            victim, at_us=duration_us * kill_at_frac,
            restore_at_us=duration_us * restore_at_frac,
        )
    fleet = Fleet(
        num_machines=num_machines, seed=seed, steering=name, faults=plan,
        warmup_us=warmup_us, **fleet_kwargs,
    )
    fleet.drive(
        duration_us=duration_us, rps=rps, num_users=num_users,
        diurnal_period_us=duration_us, diurnal_depth=diurnal_depth,
    )
    return fleet


def run_figure_fleet(
    variants=None,
    num_machines=100,
    workers_per_machine=4,
    rps=1_200_000,
    num_users=1_000_000,
    duration_us=120_000.0,
    warmup_us=20_000.0,
    diurnal_depth=0.4,
    seed=7,
    sync_interval_us=50.0,
    sync_delay_us=25.0,
    kill_machine=None,
    kill_at_frac=0.4,
    restore_at_frac=0.75,
    plan_seed=11,
):
    """Sweep steering policies over one rack; returns a results Table.

    ``kill_machine`` defaults to machine ``num_machines // 3``; pass
    ``False`` to disable the mid-run kill entirely.
    """
    names = list(variants or DEFAULT_VARIANTS)
    table = Table(
        f"Fleet steering sweep: {num_machines} machines, "
        f"{rps:,} rps, diurnal depth {diurnal_depth:g}, "
        f"staleness {sync_delay_us:g}+{sync_interval_us:g}us",
        ["steering", "offered", "completed", "drop_pct", "p50_us",
         "p99_us", "resteers", "max_machine_share"],
    )
    for name in names:
        fleet = stage_variant(
            name, num_machines, rps, duration_us, warmup_us, seed,
            num_users=num_users, diurnal_depth=diurnal_depth,
            kill_machine=kill_machine, kill_at_frac=kill_at_frac,
            restore_at_frac=restore_at_frac, plan_seed=plan_seed,
            workers_per_machine=workers_per_machine,
            sync_interval_us=sync_interval_us, sync_delay_us=sync_delay_us,
        )
        fleet.run()
        offered = fleet.generator.offered
        served = [m.served for m in fleet.machines]
        table.add(
            steering=name,
            offered=offered,
            completed=fleet.completed,
            drop_pct=100.0 * fleet.dropped / offered if offered else 0.0,
            p50_us=fleet.latency.p50(),
            p99_us=fleet.latency.p99(),
            resteers=fleet.switch.resteers,
            max_machine_share=(max(served) / sum(served)
                               if sum(served) else 0.0),
        )
    return table
