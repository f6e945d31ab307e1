"""Rack-scale ablation (§6.1): request-to-server scheduling policies.

Two tiers, matching :mod:`repro.cluster` (docs/cluster.md):

- **Micro tier** — on a 4-server rack of *full* machines serving the
  99.5/0.5 GET/SCAN mix, compare flow-hash affinity (L4 load balancer
  default), round robin, and least-outstanding power-of-two-choices at
  the programmable switch (the fleet tier's ``TorSwitch`` and steering
  policies, reading an exact load view).  Also demonstrates cross-stack portability:
  the byte-identical verified ROUND_ROBIN program that schedules
  datagrams to sockets schedules requests to servers.
- **Fleet tier** — a 60-machine aggregate rack under a diurnal load
  with a mid-run machine kill, sweeping the RackSched-style steering
  policies (random spray, per-user hash, stale JSQ, power-of-two,
  shortest expected delay, and power-of-two as a verified program
  deployed at the ToR).  Asserts the paper-shaped ordering: load-aware
  sampling beats load-oblivious steering on p99 while JSQ (and SED,
  which reduces to JSQ on a homogeneous rack) herds on the stale
  replicated view, and every variant survives the kill via switch
  failover without losing a request.
"""

from conftest import once

from repro.cluster import (
    Cluster,
    Fleet,
    PowerOfKSteering,
    RssSteering,
    SwitchProgramSteering,
)
from repro.ebpf.compiler import compile_policy
from repro.ebpf.program import load_program
from repro.experiments.figure_fleet import run_figure_fleet
from repro.policies.builtin import ROUND_ROBIN
from repro.stats.results import Table
from repro.workload.mixes import GET_SCAN_995_005

SERVERS = 4
LOAD = 900_000
DURATION_US = 120_000.0
WARMUP_US = 30_000.0

FLEET_MACHINES = 60
FLEET_RPS = 700_000
FLEET_DURATION_US = 100_000.0


def _policies():
    return {
        "flow hash": lambda c: RssSteering(),
        "round robin (program)": lambda c: SwitchProgramSteering(
            load_program(compile_policy(ROUND_ROBIN,
                                        constants={"NUM_THREADS": SERVERS}))
        ),
        "least outstanding (p2c)": lambda c: PowerOfKSteering(
            c.streams.get("switch"), k=2
        ),
    }


def run_sweep():
    table = Table(
        "Rack scheduling at the programmable switch (4 servers, 900K RPS)",
        ["policy", "p99_us", "p50_us", "drop_pct", "imbalance"],
    )
    for name, factory in _policies().items():
        cluster = Cluster(num_servers=SERVERS, seed=3)
        cluster.install_policy(factory(cluster))
        gen = cluster.drive(LOAD, GET_SCAN_995_005, duration_us=DURATION_US,
                            warmup_us=WARMUP_US).start()
        cluster.run()
        counts = gen.per_server_completed
        imbalance = max(counts) / max(1, min(counts))
        table.add(policy=name, p99_us=gen.latency.p99(),
                  p50_us=gen.latency.p50(),
                  drop_pct=100.0 * gen.drop_fraction(),
                  imbalance=imbalance)
    return table


def run_fleet_sweep():
    return run_figure_fleet(
        num_machines=FLEET_MACHINES,
        rps=FLEET_RPS,
        num_users=500_000,
        duration_us=FLEET_DURATION_US,
        warmup_us=FLEET_DURATION_US * 0.2,
        seed=7,
    )


def test_rack_scheduling(benchmark, report):
    table = once(benchmark, run_sweep)
    report("cluster_racksched", table)

    rows = {r["policy"]: r for r in table}
    # flow affinity is badly imbalanced at rack scale with few-ish flows
    assert rows["flow hash"]["imbalance"] > 1.2
    # the verified RR program balances perfectly and halves the tail
    assert rows["round robin (program)"]["imbalance"] < 1.05
    assert rows["round robin (program)"]["p99_us"] \
        < rows["flow hash"]["p99_us"] / 1.5
    # load-aware beats load-oblivious on the heavy-tailed mix
    assert rows["least outstanding (p2c)"]["p99_us"] \
        <= rows["round robin (program)"]["p99_us"]


def test_fleet_steering(benchmark, report):
    table = once(benchmark, run_fleet_sweep)
    report("cluster_fleet", table)

    rows = {r["steering"]: r for r in table}
    # sampling the replicated load view beats blind spray on the tail
    assert rows["power_of_two"]["p99_us"] < rows["random"]["p99_us"]
    # the verified program deployed at the ToR matches native power-of-two
    assert rows["program_p2c"]["p99_us"] < rows["random"]["p99_us"]
    # JSQ herds on the stale replica: no better than the sampling policy
    assert rows["jsq"]["p99_us"] >= rows["power_of_two"]["p99_us"]
    # with homogeneous workers SED reduces to JSQ and herds identically
    assert rows["sed"]["p99_us"] == rows["jsq"]["p99_us"]
    assert rows["sed"]["p99_us"] >= rows["power_of_two"]["p99_us"]
    # every variant survives the mid-run kill: failover re-steers,
    # nothing is lost and nothing left in flight
    for row in table:
        assert row["completed"] == row["offered"]
        assert row["resteers"] > 0


def test_fleet_determinism(benchmark):
    def paired():
        outcomes = []
        for _ in range(2):
            fleet = Fleet(num_machines=24, seed=5, steering="power_of_two")
            fleet.drive(duration_us=20_000.0, rps=250_000,
                        num_users=100_000)
            fleet.run()
            outcomes.append(
                (fleet.completed, tuple(m.served for m in fleet.machines),
                 fleet.latency.p99())
            )
        return outcomes

    first, second = once(benchmark, paired)
    assert first == second
