"""Figure 7: token-based QoS vs Round Robin under a two-user mix.

Two users issue GETs: latency-sensitive (LS) and best-effort (BE); total
offered load is fixed at 400K RPS (slightly above saturation) while the
LS/BE split sweeps.  The token policy (350K tokens/s, 100 us epochs,
leftovers gifted to BE) keeps LS 99% latency flat until LS load reaches the
token rate; Round Robin admits everything, giving BE slightly more
throughput at the cost of ~6x worse LS tails.

Calibration note: this experiment raises the per-datagram syscall cost so
the 6-core saturation point sits just under 400K RPS, matching the paper's
"slightly higher than the saturation point" setup (see EXPERIMENTS.md).
"""

from repro.config import set_a, with_costs
from repro.core.hooks import Hook
from repro.experiments.runner import RocksDbTestbed
from repro.policies.builtin import ROUND_ROBIN, TOKEN_BASED
from repro.policies.token_agent import TokenAgent
from repro.stats.results import Table
from repro.workload.mixes import GET_ONLY

__all__ = ["DEFAULT_LS_LOADS", "run_figure7"]

DEFAULT_LS_LOADS = [50_000 * i for i in range(1, 8)]  # 50K..350K
TOTAL_LOAD = 400_000
LS_USER = 1
BE_USER = 2
N = 6


def _config():
    # saturation ~= 6 / (3.0 + 11 + 1.0) us =~ 400K RPS, so the fixed 400K
    # offered load sits "slightly higher than the saturation point" (§5.2.2)
    return with_costs(set_a(), recv_syscall_us=3.0)


def run_figure7(
    ls_loads=None,
    total_load=TOTAL_LOAD,
    duration_us=300_000.0,
    warmup_us=60_000.0,
    token_rate=350_000,
    epoch_us=100.0,
    seed=4,
    policies=None,
):
    ls_loads = ls_loads or DEFAULT_LS_LOADS
    names = policies or ["round_robin", "token_based"]
    table = Table(
        "Figure 7: LS/BE token-based QoS (total 400K RPS)",
        ["policy", "ls_load_rps", "be_goodput_rps", "ls_p99_us",
         "be_drop_pct", "ls_drop_pct"],
    )
    for name in names:
        for ls_load in ls_loads:
            be_load = total_load - ls_load
            if name == "token_based":
                policy = (TOKEN_BASED, Hook.SOCKET_SELECT, {"NUM_THREADS": N})
            else:
                policy = (ROUND_ROBIN, Hook.SOCKET_SELECT, {"NUM_THREADS": N})
            testbed = RocksDbTestbed(
                policy=policy, num_threads=N, config=_config(), seed=seed
            )
            agent = None
            if name == "token_based":
                token_map = testbed.app.map_open(
                    testbed.app.map_path("token_map")
                )
                agent = TokenAgent(
                    testbed.machine, token_map, LS_USER, BE_USER,
                    rate_per_sec=token_rate, epoch_us=epoch_us,
                )
            ls_gen = testbed.drive(
                ls_load, GET_ONLY, duration_us, warmup_us, stream="ls",
                user_id=LS_USER,
            )
            be_gen = testbed.drive(
                be_load, GET_ONLY, duration_us, warmup_us, stream="be",
                user_id=BE_USER,
            )
            ls_gen.start()
            be_gen.start()
            # the token agent's periodic timer never drains the event heap,
            # so run time-bounded: offered window + drain margin
            testbed.machine.run(until=duration_us + 50_000.0)
            if agent is not None:
                agent.stop()
            testbed.machine.run()
            table.add(
                policy=name,
                ls_load_rps=ls_load,
                be_goodput_rps=be_gen.goodput_rps(duration_us),
                ls_p99_us=ls_gen.latency.p99(),
                be_drop_pct=100.0 * be_gen.drop_fraction(),
                ls_drop_pct=100.0 * ls_gen.drop_fraction(),
            )
    return table
