"""Rack-scale scheduling at a programmable switch (paper §6.1).

Four simulated servers behind a programmable top-of-rack switch.  The same
matching abstraction — and literally the same verified round-robin program
that schedules datagrams to sockets in quickstart.py — schedules requests
to servers, against an L4-load-balancer flow hash and a RackSched-style
least-outstanding policy.

Run:  python examples/rack_scheduling.py
"""

from repro.cluster import (
    Cluster,
    PowerOfKSteering,
    RssSteering,
    SwitchProgramSteering,
)
from repro.ebpf.compiler import compile_policy
from repro.ebpf.program import load_program
from repro.policies import ROUND_ROBIN
from repro.workload import GET_SCAN_995_005

SERVERS = 4
LOAD_RPS = 900_000
DURATION_US = 100_000.0
WARMUP_US = 25_000.0


def run(policy_factory):
    cluster = Cluster(num_servers=SERVERS, seed=3)
    cluster.install_policy(policy_factory(cluster))
    gen = cluster.drive(LOAD_RPS, GET_SCAN_995_005, duration_us=DURATION_US,
                        warmup_us=WARMUP_US).start()
    cluster.run()
    return gen


def main():
    print(f"{SERVERS} servers x 6 cores, 99.5/0.5 GET/SCAN @ {LOAD_RPS:,} RPS")
    print(f"{'switch policy':>26} | {'p99 (us)':>9} | {'drops':>6} | "
          f"per-server completions")
    print("-" * 78)
    policies = (
        ("flow hash (LB default)", lambda c: RssSteering()),
        ("round robin (program)", lambda c: SwitchProgramSteering(
            load_program(compile_policy(ROUND_ROBIN,
                                        constants={"NUM_THREADS": SERVERS})))),
        ("least outstanding (p2c)", lambda c: PowerOfKSteering(
            c.streams.get("switch"), k=2)),
    )
    for name, factory in policies:
        gen = run(factory)
        print(f"{name:>26} | {gen.latency.p99():9.1f} | "
              f"{gen.drop_fraction():6.1%} | {gen.per_server_completed}")
    print()
    print("The 'round robin (program)' row runs the byte-identical verified")
    print("program from quickstart.py — inputs and executors changed, the")
    print("policy didn't (Syrup's matching abstraction, end to end).")


if __name__ == "__main__":
    main()
