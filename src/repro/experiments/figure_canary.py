"""figure_canary: shadow deployment and SLO-gated canary promotion.

The robustness tentpole's acceptance story.  A RocksDB testbed runs the
bimodal mix (99.5% ~11 us GETs / 0.5% ~700 us SCANs) under the proven
:data:`~repro.qdisc.policies.SRPT_BY_SIZE` socket discipline, with the
live SLO **GET p99 <= 1.5 ms** tracked the whole run.  (On this mix a
GET's p99 is dominated by landing behind a ~700 us SCAN already in
service — non-preemptive SRPT holds ~1.0 ms at this load, so 1.5 ms is
the objective an operator would actually sign, met with headroom.)  Mid-run the
operator submits a candidate rank policy through
:meth:`~repro.core.api.App.deploy_shadow`; a
:class:`~repro.core.promote.CanaryController` on the SignalBus then
walks it shadow → canary-10%-of-flows → active, each transition gated
on decision agreement, cohort tail latency, zero candidate faults and
the SLO guard.  Two candidates, one row each:

- ``good`` — :data:`~repro.qdisc.policies.SRPT_TIERED`: same ordering
  for the short class, coarser for the long class.  High agreement in
  shadow, cohort p99 indistinguishable from control in canary —
  **auto-promoted to active** and it survives probation.
- ``broken`` — :data:`~repro.qdisc.policies.SRPT_MISRANK_GETS`:
  mis-ranks every 16th GET key behind all SCANs.  The bug is rare
  (~6% of GETs) so shadow agreement still clears the 0.90 gate — the
  decision diff alone cannot catch it — but on the enforced canary
  cohort those GETs inherit the full SCAN queueing delay, the cohort
  p99 blows past ``latency_ratio`` x control, and the candidate is
  **auto-rejected at the canary stage**.  Only the cohort's worst ~6%
  ever felt it: ~0.6% of live GETs, well inside the 1% error budget,
  so the live SLO is never breached (``slo_breached`` stays False).

The agreement gate is set to 0.90 (below the controller's 0.98
default) *deliberately*: the point of the figure is that a candidate
can pass every offline/shadow check and still be caught by the canary
latency gate — agreement measures decisions, the cohort sketch
measures consequences.  Determinism: seeded RNG streams everywhere;
the candidate runs on its own ``shadow/...`` stream, so reruns are
bit-identical and the control cohort is undisturbed.

The canary latency gate is *statistical*: a mis-ranked GET only pays
for its rank when it lands in a queue, so a canary window that happens
to miss the deep-queue episodes can pass a marginal candidate — which
is exactly why promotion is followed by a probation window and why the
lifecycle keeps last-known-good for demotion.  The defaults here
(load, window sizes, seed) are calibrated so the figure's verdicts are
decisive and reproducible.
"""

from repro.experiments.runner import (
    SLO_AVAILABILITY_TARGET,
    RocksDbTestbed,
    wire_slo_sensors,
)
from repro.qdisc.policies import (
    SRPT_BY_SIZE,
    SRPT_MISRANK_GETS,
    SRPT_TIERED,
)
from repro.stats.results import Table
from repro.workload.mixes import GET_SCAN_995_005
from repro.workload.requests import GET

__all__ = [
    "CANDIDATES",
    "DEFAULT_LOAD",
    "GATES",
    "SLO_AVAILABILITY_TARGET",
    "SLO_GET_P99_US",
    "run_figure_canary",
    "stage_variant",
]

#: The live objective the promotion pipeline must never sacrifice:
#: 99% of GETs within 1.5 ms, at least 99% of requests served.
SLO_GET_P99_US = 1_500.0

#: Busy but under the knee — the active SRPT discipline holds the
#: objective with headroom, so any breach during an attempt would be
#: the promotion pipeline's own fault; queues are deep enough that a
#: mis-ranked GET actually pays for its rank.
DEFAULT_LOAD = 260_000

N = 6
SIGNAL_INTERVAL_US = 2_000.0
#: Tier boundary for both candidates (GETs measure ~11 us, SCANs ~700).
SHORT_US = 100
#: Sim time at which the operator submits the candidate.
SHADOW_AT_US = 80_000.0

#: candidate name -> rank-policy source submitted to deploy_shadow.
CANDIDATES = {
    "good": SRPT_TIERED,
    "broken": SRPT_MISRANK_GETS,
}

#: Promotion gates (forwarded to CanaryController).  agreement_min is
#: relaxed to 0.90 so the broken candidate reaches the canary stage —
#: see the module docstring for why that is the point of the figure.
GATES = dict(
    canary_pct=10,
    agreement_min=0.90,
    min_decisions=2_000,
    min_canary=1_000,
    latency_ratio=1.5,
    latency_slack_us=50.0,
    hold_ticks=3,
    probation_ticks=4,
)


def stage_variant(submissions, load, duration_us, warmup_us, seed,
                  gates=None):
    """Build and wire one canary run; generator started, machine NOT run.

    ``submissions`` is a sequence of ``(candidate, at_us)``: at each
    ``at_us`` the operator submits ``CANDIDATES[candidate]`` through
    :meth:`~repro.core.api.App.deploy_shadow` under :data:`GATES`
    (overridden by ``gates``).  The figure stages one submission per
    run; the ``syrupctl promote`` view stages two on one machine.

    Returns ``(testbed, gen, records, states)``: ``records`` fills with
    one PromotionRecord per submission as each fires, ``states`` with
    the latency objective's alert state on every bus tick.  The
    completion path routes every GET latency into the SLO objective and
    into the latest record's cohort sketches.
    """
    testbed = RocksDbTestbed(
        qdisc=(SRPT_BY_SIZE, "socket", "pifo"),
        mark_sizes=True,
        num_threads=N,
        seed=seed,
        metrics=True,
        signals=SIGNAL_INTERVAL_US,
        slo=True,
    )
    machine = testbed.machine
    gen = testbed.drive(
        load, GET_SCAN_995_005, duration_us, warmup_us
    ).start()
    # Socket overflow drops spend the availability budget.
    lat_slo, _avail_slo = wire_slo_sensors(
        machine, gen, SLO_GET_P99_US, testbed.server.total_socket_drops,
        publish_p99=False,
    )
    records = []
    feed_slo = gen.on_latency

    def on_latency(request, latency_us):
        feed_slo(request, latency_us)
        if records and request.rtype == GET:
            records[-1].controller.observe(request, latency_us)

    gen.on_latency = on_latency

    bus = machine.signals
    assert bus is not None  # staged with signals on
    bus.active = lambda: machine.engine.now < duration_us
    # Worst SLO state seen on any tick: the proof the live objective was
    # never paged during either promotion attempt.
    states = []
    bus.add_controller("slo_watch", lambda: states.append(lat_slo.state()))

    gate_kwargs = dict(GATES)
    if gates:
        gate_kwargs.update(gates)

    def submit(name):
        records.append(testbed.app.deploy_shadow(
            CANDIDATES[name], layer="socket",
            constants={"SHORT_US": SHORT_US}, name=name, **gate_kwargs,
        ))

    for name, at_us in submissions:
        machine.engine.post_at(at_us, lambda name=name: submit(name))
    return testbed, gen, records, states


def run_figure_canary(
    load=DEFAULT_LOAD,
    duration_us=300_000.0,
    warmup_us=60_000.0,
    seed=3,
    candidates=None,
    gates=None,
):
    """One row per candidate.  ``outcome``/``reason`` come from the
    PromotionRecord; ``slo_breached`` is judged on *measured*
    end-of-run stats (GET p99 vs the objective, drop fraction vs the
    availability budget) plus the tick-sampled burn state — never on
    the controller's opinion of itself."""
    names = candidates or list(CANDIDATES)
    table = Table(
        "figure_canary: shadow -> canary-10% -> active, SLO-gated; the "
        "good candidate promotes, the broken one is rejected in canary",
        ["candidate", "load_rps", "outcome", "reason", "agreement",
         "decisions", "canary_enforced", "canary_p99_us",
         "control_p99_us", "get_p99_us", "drop_pct", "page_ticks",
         "slo_breached"],
    )
    for name in names:
        testbed, gen, records, states = stage_variant(
            [(name, SHADOW_AT_US)], load, duration_us, warmup_us, seed,
            gates=gates,
        )
        testbed.machine.run()

        record = records[0]
        controller = record.controller
        get_p99 = gen.latency.p99(tag=GET)
        drop_frac = gen.drop_fraction()
        page_ticks = states.count("page")
        breached = (
            get_p99 > SLO_GET_P99_US
            or drop_frac > 1.0 - SLO_AVAILABILITY_TARGET
            or page_ticks > 0
        )
        table.add(
            candidate=name,
            load_rps=load,
            outcome=record.stage,
            reason=record.outcome_reason or record.history[-1][2],
            agreement=round(record.diff.agreement(), 4),
            decisions=record.diff.decisions,
            canary_enforced=record.canary_enforced,
            canary_p99_us=(
                controller.canary_sketch.percentile(99.0)
                if controller.canary_sketch.count else None
            ),
            control_p99_us=(
                controller.control_sketch.percentile(99.0)
                if controller.control_sketch.count else None
            ),
            get_p99_us=get_p99,
            drop_pct=100.0 * drop_frac,
            page_ticks=page_ticks,
            slo_breached=breached,
        )
    return table
