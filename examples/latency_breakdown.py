"""Where does tail latency come from?  Stage-by-stage span trees.

Traces every request of the Figure-6 workload under two policies and
prints the p99 of each span — making it visible that SCAN Avoid's entire
win lives in the socket-wait stage (head-of-line blocking), while NIC,
stack, and service costs are untouched.

Run:  python examples/latency_breakdown.py
"""

from repro import Hook, Machine, set_a
from repro.apps import RocksDbServer
from repro.obs.tail import stage_percentiles
from repro.policies import ROUND_ROBIN, SCAN_AVOID
from repro.workload import GET_SCAN_995_005, OpenLoopGenerator

LOAD_RPS = 120_000
DURATION_US = 150_000.0
WARMUP_US = DURATION_US / 4
N = 6
STAGES = ("nic_queue", "softirq", "socket_wait", "service", "total")


def run(source, mark_scans):
    machine = Machine(set_a(), seed=9, spans=1, spans_capacity=1 << 15)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, N, mark_scans=mark_scans)
    app.deploy_policy(source, Hook.SOCKET_SELECT, constants={"NUM_THREADS": N})
    gen = OpenLoopGenerator(machine, 8080, LOAD_RPS, GET_SCAN_995_005,
                            duration_us=DURATION_US, warmup_us=WARMUP_US)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    trees = [t for t in machine.obs.spans.trees() if t["start"] >= WARMUP_US]
    return stage_percentiles(trees)


def main():
    print(f"99.5/0.5 GET/SCAN @ {LOAD_RPS:,} RPS — p99 per pipeline stage\n")
    breakdowns = {
        "round robin": run(ROUND_ROBIN, False),
        "scan avoid": run(SCAN_AVOID, True),
    }
    header = f"{'stage':>12} | " + " | ".join(f"{n:>12}" for n in breakdowns)
    print(header)
    print("-" * len(header))
    for stage in STAGES:
        row = " | ".join(f"{b[stage]:12.1f}" for b in breakdowns.values())
        print(f"{stage:>12} | {row}")
    print()
    print("Only socket_wait moves: the policy's entire effect is where")
    print("datagrams queue, exactly as the matching abstraction intends.")


if __name__ == "__main__":
    main()
