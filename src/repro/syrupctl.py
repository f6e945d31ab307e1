"""syrupctl: operator-facing inspection of a running machine.

The bpftool/`ghostctl` analogue — renders what syrupd knows about a live
machine: deployed policies (with run counts and costs), pinned maps (with
contents), hook sites and port rules, executor maps, scheduler state, and
— on machines running with ``metrics=True`` — the full observability
layer: per-``(app, hook)`` metric tables (:func:`render_stats`) and the
structured decision-event trace (:func:`render_events`).  Used
interactively from examples/notebooks and by operators debugging a policy
that "deployed fine but does nothing".

Also a CLI (``syrupctl`` console script / ``python -m repro <view>``).
There is no long-running daemon to attach to in a simulation, so each
view stages a canned scenario, runs it, and renders it — the
documented, runnable demonstration of that surface
(docs/observability.md walks through the output).  This module is
rendering only: :data:`VIEWS` maps every view to its scenario, its
``--json`` snapshot and its renderer; :data:`SCENARIOS` maps every
scenario to a :mod:`repro.experiments` staging call at demo scale; and
:func:`run_view` is the one parse -> stage -> run -> print -> export
path both CLIs walk.  No testbed, fleet, fault plan or controller is
constructed here.
"""

import argparse
import json
import sys

from repro import experiments
from repro.experiments.runner import stage_point
from repro.obs.export import write_openmetrics
from repro.obs.tail import critical_path, render_critical_path
from repro.stats.results import Table
from repro.workload.mixes import GET_SCAN_995_005

__all__ = [
    "SCENARIOS",
    "VIEWS",
    "build_parser",
    "dump_map",
    "main",
    "render_cores",
    "render_deployments",
    "render_events",
    "render_fleet",
    "render_health",
    "render_maps",
    "render_promote",
    "render_qdisc",
    "render_slo",
    "render_spans",
    "render_stats",
    "render_status",
    "render_tail",
    "render_tenants",
    "render_timeline",
    "run_view",
    "stage_view",
]


def render_deployments(machine):
    """One row per deployed policy, bpftool-prog-show style."""
    table = Table(
        "deployed policies",
        ["fd", "app", "hook", "name", "invocations", "insns",
         "cycle_estimate", "commits", "policy_errors"],
    )
    for row in machine.syrupd.status():
        table.add(**{k: v for k, v in row.items() if k in table.columns})
    return table.render()


def render_health(machine):
    """Per-deployment lifecycle health (docs/robustness.md).

    One row per deployment: its state (``active`` / ``quarantined`` /
    ``fallback``), runtime-fault totals and the count inside the current
    sliding window, watchdog crash/restart totals, and rollbacks.
    """
    table = Table(
        f"deployment health t={machine.now:.0f}us",
        ["fd", "app", "hook", "state", "runtime_faults",
         "faults_in_window", "crashes", "restarts", "rollbacks"],
    )
    rows = machine.syrupd.health()
    for row in rows:
        table.add(**{k: v for k, v in row.items() if k in table.columns})
    rendered = table.render()
    if not rows:
        rendered += "\n(no deployments)"
    injector = machine.faults
    if injector is not None:
        rendered += (
            f"\nfault plan: seed={injector.plan.seed} "
            f"specs={len(injector.plan)} injected={injector.injected}"
        )
    return rendered


def render_qdisc(machine):
    """Installed queueing disciplines, one row per attached queue.

    The ``tc qdisc show`` analogue for :mod:`repro.qdisc`: per hook and
    per target queue (socket sid / NIC rx queue / enclave runqueue) the
    backend, lifecycle state (``active`` or reverted-to-``fifo``),
    current depth, enqueue/dequeue/drop counters, and a summary of the
    rank distribution the rank function has assigned so far.
    """
    table = Table(
        f"queueing disciplines t={machine.now:.0f}us",
        ["fd", "app", "layer", "target", "backend", "state", "depth",
         "enqueues", "dequeues", "sched_drops", "overflow_drops",
         "evictions", "runtime_faults", "rank_mean", "rank_min",
         "rank_max"],
    )
    rows = machine.syrupd.qdiscs()
    for row in rows:
        table.add(**{k: v for k, v in row.items() if k in table.columns})
    rendered = table.render()
    if not rows:
        rendered += "\n(no disciplines installed)"
    return rendered


def render_promote(machine):
    """Promotion pipeline state: one row per shadow/canary attempt.

    The ``syrupctl promote`` view (docs/robustness.md "Promotion
    lifecycle"): each candidate's current stage, decision-diff
    agreement, canary cohort exposure, fault counts, and the rejection
    or demotion reason, followed by the per-candidate stage history the
    lifecycle events recorded.
    """
    table = Table(
        f"promotion pipeline t={machine.now:.0f}us",
        ["name", "app", "hook", "stage", "reason", "canary_pct",
         "canary_enforced", "canary_faults", "agreement", "decisions",
         "shadow_faults"],
    )
    rows = machine.syrupd.promotions()
    for row in rows:
        diff = row["diff"]
        table.add(
            name=row["name"], app=row["app"], hook=row["hook"],
            stage=row["stage"], reason=row["reason"] or "-",
            canary_pct=row["canary_pct"],
            canary_enforced=row["canary_enforced"],
            canary_faults=row["canary_faults"],
            agreement=diff["agreement"], decisions=diff["decisions"],
            shadow_faults=diff["shadow_faults"],
        )
    rendered = table.render()
    if not rows:
        return rendered + "\n(no promotion attempts)"
    for row in rows:
        rendered += f"\n{row['name']}:"
        for step in row["history"]:
            rendered += (f"\n  {step['t_us']:>10.0f}us  "
                         f"{step['stage']:<8s} {step['reason']}")
        confusion = row["diff"]["confusion"]
        if confusion:
            pairs = ", ".join(f"{k}:{v}" for k, v in confusion.items())
            rendered += f"\n  decision diff: {pairs}"
    return rendered


def render_fleet(fleet, width=60):
    """The rack console: steering, staleness, liveness, load balance.

    Renders a :class:`repro.cluster.fleet.Fleet` — the header shows the
    installed steering policy and the sync-bus staleness window, then
    per-machine sparklines over *machine index* (served totals and
    instantaneous load) expose how evenly the policy spread the rack,
    and a footer reports failover activity and the client-observed tail.
    """
    view = fleet.fleet_view()
    staleness = view["staleness_us"]
    lines = [
        f"== syrup fleet t={fleet.engine.now:.0f}us ==",
        (
            f"machines={view['machines']} x{view['workers_per_machine']} "
            f"workers  steering={view['steering']}  "
            f"sync={view['sync_delay_us']:g}+{view['sync_interval_us']:g}us"
            + (f"  staleness={staleness:.0f}us" if staleness is not None
               else "")
        ),
    ]
    if view["down"]:
        lines.append(f"DOWN: machines {view['down']}")
    lines.append(
        f"offered={view['offered']}  completed={view['completed']}  "
        f"dropped={view['dropped']}  resteers={view['resteers']}  "
        f"outstanding={view['outstanding']}"
    )
    served = view["served"]
    lines.append(f"served/machine   {_sparkline(served, width)}  "
                 f"min={min(served)} max={max(served)}")
    lines.append(f"load now         {_sparkline(view['load_now'], width)}  "
                 f"total={sum(view['load_now'])}")
    p50, p99 = view["p50_us"], view["p99_us"]
    if p50 == p50:  # not NaN
        lines.append(f"latency  p50={p50:.0f}us  p99={p99:.0f}us")
    return "\n".join(lines)


def render_slo(machine):
    """Per-objective SLO table plus the signal-bus footer.

    One row per objective from :meth:`repro.obs.slo.SloTracker.snapshot`
    — lifetime compliance, short/long-window burn rates, remaining error
    budget, and the alert state — followed by what the
    :class:`~repro.core.signals.SignalBus` last observed (tick count and
    the latest scalar signal values).
    """
    rows = machine.syrupd.slo()
    if not rows:
        return (
            "no SLO objectives on this machine "
            "(construct it with Machine(slo=True) and register "
            "objectives on machine.slo)"
        )
    table = Table(
        f"syrup slo t={machine.now:.0f}us",
        ["name", "kind", "target", "good", "total", "compliance",
         "burn_short", "burn_long", "budget_remaining", "state"],
    )
    for row in rows:
        table.add(**{k: v for k, v in row.items() if k in table.columns})
    view = machine.syrupd.signals()
    footer = (
        f"signals: interval={view['interval_us']:g}us "
        f"ticks={view['ticks']} "
        f"controllers={view['controllers']}"
    )
    last = view["last"]
    if last:
        footer += "\nlast: " + "  ".join(
            f"{name}={value:g}" if isinstance(value, float)
            else f"{name}={value}"
            for name, value in last.items()
        )
    return table.render() + "\n" + footer


def render_tenants(machine):
    """The multi-tenant console: per-tenant bills plus the blame matrix.

    One row per tenant from the
    :class:`~repro.obs.accounting.TenantAccountant` ledgers — CPU
    service time, policy-execution overhead, per-layer queueing delay,
    completions and drops — followed by the pairwise interference
    matrix ("A imposed X us on B at layer L", diagonal = self-queueing)
    and each tenant's worst aggressor.
    """
    acct = machine.obs.acct
    if acct is None:
        return (
            "tenant accounting disabled on this machine "
            "(construct it with Machine(accounting=True))"
        )
    snap = acct.snapshot()
    table = Table(
        f"syrup tenants t={machine.now:.0f}us",
        ["tenant", "completed", "drops", "cpu_us", "policy_us",
         "nic_wait_us", "softirq_wait_us", "socket_wait_us",
         "qdisc_wait_us", "runq_wait_us"],
    )
    for entry in snap["tenants"]:
        wait = entry["wait_us"]
        table.add(
            tenant=entry["tenant"],
            completed=entry["completed"],
            drops=sum(entry["drops"].values()),
            cpu_us=round(entry["cpu_service_us"], 1),
            policy_us=round(entry["policy_exec_us"], 1),
            nic_wait_us=round(wait["nic"], 1),
            softirq_wait_us=round(wait["softirq"], 1),
            socket_wait_us=round(wait["socket"], 1),
            qdisc_wait_us=round(wait["qdisc"], 1),
            runq_wait_us=round(wait["runqueue"], 1),
        )
    rendered = table.render()
    if not snap["tenants"]:
        return rendered + "\n(no tenant-labeled traffic)"
    blame = snap["blame"]
    if blame:
        rendered += "\n== blame matrix (victim <- aggressor, us) =="
        for victim in sorted(blame):
            for aggressor in sorted(blame[victim]):
                for layer, us in sorted(blame[victim][aggressor].items()):
                    marker = " (self)" if victim == aggressor else ""
                    rendered += (f"\n{victim:<10} <- {aggressor:<10} "
                                 f"{layer:<9} {us:>12.1f}{marker}")
        for entry in snap["tenants"]:
            top = acct.blame.top_aggressor(entry["tenant"])
            if top is not None:
                aggressor, layer, us, share = top
                rendered += (
                    f"\nworst aggressor for {entry['tenant']}: "
                    f"{aggressor} at {layer} "
                    f"({us:.0f}us, {100.0 * share:.0f}% of that layer)"
                )
    return rendered


def render_cores(machine, width=64):
    """The elastic-core console: per-class grants plus occupancy lanes.

    One row per scheduling class registered with the
    :class:`~repro.kernel.arbiter.CoreArbiter` — floor, currently held
    cores, cumulative grants/revocations, time-averaged occupancy (in
    cores) and instantaneous pressure — followed by one ASCII lane per
    pool core showing which class owned it over the run (legend letter
    per class, ``.`` = unowned / before the recorded window).
    """
    arbiter = getattr(machine, "arbiter", None)
    if arbiter is None:
        return (
            "no core arbiter on this machine (construct it with "
            "Machine(scheduler='elastic', elastic=ElasticSpec()...))"
        )
    snap = arbiter.view()
    now = max(snap["now_us"], 1e-9)
    table = Table(
        f"syrup cores t={snap['now_us']:.0f}us "
        f"pool={len(snap['pool'])} moves={snap['moves']} "
        f"stalls={snap['stalls']}",
        ["class", "floor", "cores", "grants", "revocations",
         "occ_cores", "pressure"],
    )
    letters = {}
    for index, entry in enumerate(snap["classes"]):
        letters[entry["name"]] = chr(ord("A") + index % 26)
        table.add(**{
            "class": entry["name"],
            "floor": entry["floor"],
            "cores": ",".join(str(c) for c in entry["cores"]) or "-",
            "grants": entry["grants"],
            "revocations": entry["revocations"],
            "occ_cores": round(entry["occupancy_us"] / now, 2),
            "pressure": entry["pressure"],
        })
    lines = [table.render(), "", "== occupancy timeline =="]
    lines.append("  ".join(
        f"{letter}={name}" for name, letter in letters.items()
    ) + "  .=unowned")
    bucket = now / width
    for cid in snap["pool"]:
        segments = snap["timeline"].get(cid, [])
        lane = []
        for col in range(width):
            t = (col + 0.5) * bucket
            char = "."
            for seg in segments:
                if seg["start_us"] <= t < seg["end_us"]:
                    char = letters.get(seg["owner"], "?")
                    break
            lane.append(char)
        stalled = " [stalled]" if cid in snap["stalled"] else ""
        lines.append(f"core {cid:>2} |{''.join(lane)}|{stalled}")
    return "\n".join(lines)


def render_maps(machine, max_entries=8):
    """Every pinned map: path, placement, size, and leading entries."""
    registry = machine.syrupd.registry
    lines = ["== pinned maps =="]
    for path in registry.paths():
        syrup_map = registry._pinned[path]
        entries = syrup_map.items()
        preview = ", ".join(f"{k}:{v}" for k, v in entries[:max_entries])
        if len(entries) > max_entries:
            preview += ", ..."
        lines.append(
            f"{path}  [{syrup_map.bpf_map.kind}, "
            f"{len(entries)}/{syrup_map.bpf_map.max_entries}, "
            f"{syrup_map.placement}]  {{{preview}}}"
        )
    if len(lines) == 1:
        lines.append("(none)")
    return "\n".join(lines)


def dump_map(machine, app_name, map_name):
    """Full contents of one app's pinned map, as a dict."""
    registry = machine.syrupd.registry
    path = registry.pin_path(app_name, map_name)
    syrup_map = registry.open(path, app_name)
    return dict(syrup_map.items())


def _hook_lines(machine):
    lines = ["== hook sites =="]
    sites = machine.syrupd._sites
    if not sites:
        lines.append("(none provisioned)")
    for hook, site in sorted(sites.items()):
        ports = sorted(site._port_rules)
        lines.append(
            f"{hook}: ports={ports} pass={site.pass_decisions} "
            f"drop={site.drop_decisions}"
        )
    return lines


def _core_lines(machine):
    lines = ["== cores =="]
    now = machine.now or 1.0
    for core in machine.cores:
        who = core.thread.name if core.thread else "idle"
        tag = " [ghOSt agent]" if core is machine.agent_core else ""
        lines.append(
            f"core {core.cid}: {who}  util={core.busy_us / now:.1%}{tag}"
        )
    return lines


def render_status(machine):
    """The full picture: deployments, maps, hooks, cores, drops."""
    sections = [
        f"machine {machine.config.name!r} t={machine.now:.0f}us "
        f"sched={machine.scheduler_kind}",
        render_deployments(machine),
        render_maps(machine),
        "\n".join(_hook_lines(machine)),
        "\n".join(_core_lines(machine)),
        f"== drops == {machine.netstack.drops}",
    ]
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# Observability surface (`syrupctl stats`, docs/observability.md)
# ----------------------------------------------------------------------
def _fmt_metric(metric):
    if metric.kind == "sketch":
        s = metric.summary()
        return (
            f"n={s['count']} mean={s['mean']:.2f} p50={s['p50']:.2f} "
            f"p99={s['p99']:.2f} max={s['max']:.2f}"
        )
    return metric.value


def render_stats(machine):
    """Per-app per-hook metric summary of an observability-enabled machine.

    One row per metric series, grouped by (app, scope) where scope is a
    hook name or subsystem (``maps`` / ``syrupd`` / ``thread_sched``).
    """
    registry, events = machine.obs.registry, machine.obs.events
    if registry is None or events is None:
        return (
            "observability disabled on this machine "
            "(construct it with Machine(metrics=True))"
        )
    table = Table(
        f"syrup stats t={machine.now:.0f}us",
        ["app", "scope", "metric", "value", "updated_us"],
    )
    for app, scope, name in registry.series():
        metric = registry.get(app, scope, name)
        updated = metric.updated_at
        table.add(
            app=app, scope=scope, metric=name, value=_fmt_metric(metric),
            updated_us=None if updated is None else round(updated, 1),
        )
    footer = (
        f"events: {events.emitted} emitted, {len(events)} buffered, "
        f"{events.dropped} dropped (capacity {events.capacity})"
    )
    return table.render() + "\n" + footer


# ----------------------------------------------------------------------
# Time-series surface (`syrupctl timeline`, repro.obs.timeseries)
# ----------------------------------------------------------------------
#: Sparkline intensity ramp, lowest to highest.
_SPARK = " .:-=+*#%@"


def _sparkline(values, width, pad=0):
    """One line of ASCII intensity characters for a numeric series.

    ``pad`` left-pads with spaces (series born mid-run stay aligned to
    the shared time axis).  Non-negative series scale from a zero
    baseline so "nothing" reads as blank and steady values as solid.
    """
    if not values:
        return " " * (pad + width)
    if len(values) > width:
        # resample: mean per column keeps rates honest
        per_col = len(values) / width
        resampled = []
        for col in range(width):
            lo = int(col * per_col)
            hi = max(lo + 1, int((col + 1) * per_col))
            chunk = values[lo:hi]
            resampled.append(sum(chunk) / len(chunk))
        values = resampled
    vmin = min(min(values), 0)
    vmax = max(values)
    span = (vmax - vmin) or 1.0
    top = len(_SPARK) - 1
    return " " * pad + "".join(
        _SPARK[int((v - vmin) / span * top)] for v in values
    )


def _series_values(series):
    """Numeric values for sparklining: counters/gauges as-is, sketch p99."""
    if series.kind == "sketch":
        return series.values(field="p99")
    return series.values()


def render_timeline(machine, app=None, scope=None, width=60,
                    include_zero=False):
    """Recorded time series as labeled sparklines, one row per metric.

    Counters show per-interval deltas, gauges sampled values, sketches
    the cumulative p99 at each sample.  All-zero series are skipped
    unless ``include_zero``; filter with ``app``/``scope``.
    """
    recorder = machine.obs.recorder
    if recorder is None:
        return (
            "time-series recording disabled on this machine (construct "
            "it with Machine(metrics=True, timeseries=<interval_us>))"
        )
    keys = [
        key for key in recorder.keys()
        if (app is None or key[0] == app)
        and (scope is None or key[1] == scope)
    ]
    if not keys:
        return "(no recorded series)"
    # span from the longest series (ones born mid-run start later)
    longest = max((recorder.series(*key) for key in keys), key=len)
    times = longest.times()
    header = (
        f"== syrup timeline ==  interval={recorder.interval_us:g}us  "
        f"samples={len(times)}  span=[{times[0]:.0f}, {times[-1]:.0f}]us"
        if times else "== syrup timeline ==  (no samples yet)"
    )
    lines = [header]
    label_width = max(len("/".join(key)) for key in keys)
    n_cols = min(len(times), width) or 1
    for key in keys:
        series = recorder.series(*key)
        values = _series_values(series)
        if not include_zero and not any(values):
            continue
        suffix = ".p99" if series.kind == "sketch" else ""
        label = "/".join(key) + suffix
        peak = max(values) if values else 0
        # align to the shared axis: late-born series are left-padded
        pad = round(n_cols * (1 - len(series) / len(times))) if times else 0
        lines.append(
            f"{label:<{label_width + 4}} max={peak:>10.6g} "
            f"|{_sparkline(values, n_cols - pad, pad=pad)}|"
        )
    if len(lines) == 1:
        lines.append("(all series zero; pass include_zero=True to see them)")
    return "\n".join(lines)


def render_events(machine, last=20, kind=None, since=None):
    """The tail of the structured event trace, one JSON object per line.

    ``kind`` filters by event kind, ``since`` keeps only events stamped
    at or after that simulated time (us), ``last`` caps how many of the
    trailing matches are printed.
    """
    trace = machine.obs.events
    if trace is None:
        return (
            "observability disabled on this machine "
            "(construct it with Machine(metrics=True))"
        )
    if kind is not None or since is not None:
        events = trace.events(kind=kind, since=since)[-last:]
    else:
        events = trace.tail(last)
    return "\n".join(json.dumps(event, sort_keys=True) for event in events)


# ----------------------------------------------------------------------
# Causal-span surface (`syrupctl spans` / `syrupctl tail`, repro.obs.spans)
# ----------------------------------------------------------------------
def render_spans(machine, last=10):
    """Sampler state plus the last ``last`` completed request trees.

    One line per request — rid, total latency, completion state — then
    one indented line per span with its duration and attributes.
    """
    tracer = machine.obs.spans
    if tracer is None:
        return (
            "span tracing disabled on this machine "
            "(construct it with Machine(spans=<sample-every>))"
        )
    lines = [
        f"== syrup spans ==  every={tracer.sample_every} "
        f"seen={tracer.seen} sampled={tracer.sampled} "
        f"completed={tracer.completed_count} aborted={tracer.aborted_count} "
        f"buffered={len(tracer)}"
    ]
    for tree in tracer.trees()[-last:]:
        total = tree["end"] - tree["start"]
        state = ("complete" if tree["complete"]
                 else f"aborted:{tree['abort_reason']}")
        lines.append(
            f"rid={tree['rid']} t=[{tree['start']:.1f}, {tree['end']:.1f}]us "
            f"total={total:.2f}us {state}"
        )
        for span in tree["spans"]:
            dur = span["end"] - span["start"]
            attrs = span.get("attrs")
            suffix = f"  {attrs}" if attrs else ""
            lines.append(f"  {span['name']:<24} {dur:>10.3f}us{suffix}")
    if len(lines) == 1:
        lines.append("(no sampled requests)")
    return "\n".join(lines)


def render_tail(machine, lo_pct=50.0, hi_pct=99.0):
    """The p50-vs-p99 critical-path table for the sampled requests."""
    tracer = machine.obs.spans
    if tracer is None:
        return (
            "span tracing disabled on this machine "
            "(construct it with Machine(spans=<sample-every>))"
        )
    analysis = critical_path(
        tracer.trees(complete=True), lo_pct=lo_pct, hi_pct=hi_pct
    )
    return render_critical_path(
        analysis, title=f"syrup tail t={machine.now:.0f}us"
    )


# ----------------------------------------------------------------------
# The CLI: one table of scenarios, one table of views, and a single
# parse -> stage -> run -> print -> export path.  Every scenario is
# staged by :mod:`repro.experiments`; the rows below only pin the
# demo's scale and telemetry tiers.
# ----------------------------------------------------------------------
def _point(factory, load, duration_us):
    """One 99.5% GET / 0.5% SCAN load point, 25% warmup, staged."""
    return stage_point(factory, load, GET_SCAN_995_005, duration_us,
                       duration_us * 0.25)[0].machine


#: scenario -> ((load, duration_ms, seed) defaults, stage).  ``stage``
#: takes ``(load, duration_us, seed, args)`` and returns the staged
#: system — a Machine or a Fleet with its load attached, nothing run.
#: Each comment says what the view shows; the scenario itself is
#: described where it is built, on the named staging function.
SCENARIOS = {
    # The canned observability scenario: one Figure-6-style point.  A
    # RocksDB server under the 99.5% GET / 0.5% SCAN mix with the SCAN
    # Avoid policy at the Socket Select hook and metrics enabled.
    "stats": ((120_000, 100.0, 7), lambda load, us, seed, a: _point(
        lambda: experiments.figure6.testbed("scan_avoid", seed, metrics=True),
        load, us)),
    # The causal-span scenario: the same Figure-6-style SCAN Avoid point
    # as ``stats``, with head-sampled span tracing (``--spans-every``
    # keeps every Nth request) *and* metrics enabled, so decision spans
    # carry event sequence numbers linking them back to the decision
    # trace.
    "spans": ((120_000, 100.0, 7), lambda load, us, seed, a: _point(
        lambda: experiments.figure_tail.testbed(
            "scan_avoid", seed, sample_every=a.spans_every,
            spans_capacity=1 << 16, metrics=True),
        load, us)),
    # The robustness scenario: a fault plan vs the lifecycle —
    # figure_faults' ``quarantine`` variant, faulting hard enough (5% of
    # Socket Select runs, 5 faults per 10 ms window) that the sliding
    # window breaks early: ``syrupctl health`` shows a ``quarantined``
    # row and the event trace carries the ``fault_injected`` ->
    # ``runtime_fault`` -> ``quarantine`` sequence.
    "faults": ((100_000, 80.0, 3), lambda load, us, seed, a: _point(
        lambda: experiments.figure_faults.testbed(
            "quarantine", seed, fault_rate=0.05, window_us=10_000.0,
            max_faults=5),
        load, us)),
    # The queueing-discipline scenario: figure_order's ``srpt_pifo``
    # point (the SRPT-by-request-size rank function on the exact PIFO
    # backend at every socket backlog), metrics enabled, at a load where
    # queues actually form.
    "qdisc": ((240_000, 100.0, 3), lambda load, us, seed, a: _point(
        lambda: experiments.figure_order.testbed(
            "srpt_pifo", seed, metrics=True),
        load, us)),
    # The time-series scenario: the dynamic Figure-8 run with metrics
    # and the flight recorder (one sample per ``--interval-ms``) on —
    # SCAN Avoid is deployed *mid-run*, so hook decision rates jump from
    # zero halfway through the timeline.
    "timeline": ((6_000, 600.0, 5),
                 lambda load, us, seed, a: experiments.figure8.stage_dynamic(
                     load=load, duration_us=us, seed=seed, metrics=True,
                     timeseries=a.interval_ms * 1000.0)[0].machine),
    # The closed-loop scenario: figure_adaptive's ``adaptive`` variant
    # at one load point past the knee, so ``syrupctl slo`` shows live
    # burn rates, budget spend, and the controllers' last actuation.
    "slo": ((240_000, 120.0, 3), lambda load, us, seed, a:
            experiments.figure_adaptive.stage_variant(
                "adaptive", load, us, us * 0.25, seed)[0].machine),
    # The promotion scenario: two candidates, one machine.  A
    # figure_canary run where the *broken* SRPT variant is submitted
    # first (shadow at 27% of the run, 80 ms by default; auto-rejected
    # in its canary window) and the *good* tiered variant second
    # (shadow at 57%, 170 ms; auto-promoted to active and through
    # probation) — so ``syrupctl promote`` renders a rejected row and
    # an active row with their full stage histories side by side.
    "promote": ((260_000, 300.0, 3), lambda load, us, seed, a:
                experiments.figure_canary.stage_variant(
                    [("broken", us * 0.27), ("good", us * 0.57)],
                    load, us, us * 0.2, seed)[0].machine),
    # The multi-tenant scenario: figure_interference's ``blame_shed``
    # closed loop — victim *alpha* (at ``--load``) under an
    # identical-looking 420K RPS GET flood from *bravo*, only bravo
    # flagged and shed — so ``syrupctl tenants`` renders both tenants'
    # bills and a blame matrix fingering bravo at the socket layer.
    "tenants": ((60_000, 120.0, 3), lambda load, us, seed, a:
                experiments.figure_interference.stage_variant(
                    "blame_shed", load, 420_000, us, us * 0.25,
                    seed)[0].machine),
    # The elastic-arbitration scenario: figure_oversub's ``elastic``
    # variant — *search* (a ghOSt enclave) and *batch* (CFS) under
    # anti-correlated flash crowds — so ``syrupctl cores`` renders
    # grants moving back and forth between the classes.  ``--load`` is
    # each app's baseline RPS.
    "cores": ((25_000, 200.0, 5), lambda load, us, seed, a:
              experiments.figure_oversub.stage_variant(
                  "elastic", load, experiments.figure_oversub.PEAK_FACTOR,
                  us, us * 0.1, seed)[0]),
    # The rack scenario: one figure_fleet power-of-two run on 48
    # aggregate machines with metrics + flight recorder on; the mid-run
    # machine kill (with reboot) puts the failover path in the console.
    "fleet": ((500_000, 60.0, 7), lambda load, us, seed, a:
              experiments.figure_fleet.stage_variant(
                  "power_of_two", 48, load, us, us * 0.2, seed,
                  metrics=True, timeseries=True)),
}


def _event_cap(args):
    return args.limit if args.limit is not None else args.last


#: view -> (scenario, ``--json`` snapshot, text renderer); the last two
#: take ``(system, args)``.
VIEWS = {
    "stats": ("stats", lambda m, a: m.obs.snapshot(),
              lambda m, a: render_stats(m)),
    "status": ("stats", lambda m, a: m.syrupd.status(),
               lambda m, a: render_status(m)),
    "maps": ("stats",
             lambda m, a: {path: dict(syrup_map.items()) for path, syrup_map
                           in m.syrupd.registry._pinned.items()},
             lambda m, a: render_maps(m)),
    "events": ("stats",
               lambda m, a: [] if m.obs.events is None
               else m.obs.events.events(
                   kind=a.kind, since=a.since)[-_event_cap(a):],
               lambda m, a: render_events(
                   m, last=_event_cap(a), kind=a.kind, since=a.since)),
    "timeline": ("timeline",
                 lambda m, a: [] if m.obs.recorder is None
                 else m.obs.recorder.snapshot(),
                 lambda m, a: render_timeline(m, app=a.app, scope=a.scope)),
    "health": ("faults", lambda m, a: m.syrupd.health(),
               lambda m, a: render_health(m)),
    "spans": ("spans",
              lambda m, a: [] if m.obs.spans is None
              else m.obs.spans.trees()[-a.last:],
              lambda m, a: render_spans(m, last=a.last)),
    "tail": ("spans",
             lambda m, a: critical_path([] if m.obs.spans is None
                                        else m.obs.spans.trees(complete=True)),
             lambda m, a: render_tail(m)),
    "qdisc": ("qdisc", lambda m, a: m.syrupd.qdiscs(),
              lambda m, a: render_qdisc(m)),
    "fleet": ("fleet", lambda f, a: f.fleet_view(),
              lambda f, a: render_fleet(f)),
    "slo": ("slo",
            lambda m, a: {"slo": m.syrupd.slo(),
                          "signals": m.syrupd.signals()},
            lambda m, a: render_slo(m)),
    "promote": ("promote", lambda m, a: m.syrupd.promotions(),
                lambda m, a: render_promote(m)),
    "tenants": ("tenants", lambda m, a: m.syrupd.tenants(),
                lambda m, a: render_tenants(m)),
    "cores": ("cores", lambda m, a: m.arbiter.view(),
              lambda m, a: render_cores(m)),
}

#: Views whose ``--json`` keeps insertion order (registry / recorder /
#: lifecycle row order is the documented reading order); every other
#: view sorts keys.
_UNSORTED_JSON = frozenset({"stats", "timeline", "health"})


def build_parser():
    """The ``syrupctl`` argument parser (``python -m repro <view>``
    fills the same namespace)."""
    parser = argparse.ArgumentParser(
        prog="syrupctl",
        description=(
            "Inspect a Syrup machine's observability layer.  Runs a "
            "canned RocksDB demo scenario (metrics enabled) and renders "
            "the requested view — the steady Figure-6-style point for "
            "stats/status/maps/events, the dynamic Figure-8 policy "
            "switch for timeline, a fault-injection run for health; "
            "see docs/observability.md and docs/robustness.md."
        ),
    )
    parser.add_argument("view", choices=list(VIEWS),
                        help="which surface to render")
    parser.add_argument("--load", type=int, default=None,
                        help="demo offered load (RPS)")
    parser.add_argument("--duration-ms", type=float, default=None,
                        help="demo run length in milliseconds")
    parser.add_argument("--seed", type=int, default=None,
                        help="demo RNG seed")
    parser.add_argument("--last", type=int, default=20,
                        help="events/spans: how many trailing entries")
    parser.add_argument("--kind", type=str, default=None,
                        help="events: filter by event kind")
    parser.add_argument("--since", type=float, default=None, metavar="US",
                        help="events: only events at/after this sim time")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="events: cap printed events (overrides --last)")
    parser.add_argument("--spans-every", type=int, default=1, metavar="N",
                        help="spans/tail: head-sample every Nth request")
    parser.add_argument("--export-trace", type=str, default=None,
                        metavar="PATH",
                        help=("spans/tail: also export the sampled spans "
                              "as a Chrome/Perfetto trace"))
    parser.add_argument("--json", action="store_true",
                        help="print the view's raw snapshot as JSON "
                             "(every view supports it)")
    parser.add_argument("--interval-ms", type=float, default=10.0,
                        help="timeline: flight-recorder sample interval")
    parser.add_argument("--app", type=str, default=None,
                        help="timeline: only series owned by this app")
    parser.add_argument("--scope", type=str, default=None,
                        help="timeline: only series under this hook/scope")
    parser.add_argument("--export-events", type=str, default=None,
                        metavar="PATH",
                        help="also export the full event ring as JSON lines")
    parser.add_argument("--openmetrics", type=str, default=None,
                        metavar="PATH",
                        help=("also export the metrics registry in "
                              "OpenMetrics text format"))
    return parser


def stage_view(args):
    """The view's scenario staged at the namespace's scale; nothing run.

    ``args`` is a :func:`build_parser` namespace.  ``--load`` /
    ``--duration-ms`` / ``--seed`` fall back to the scenario's defaults
    in :data:`SCENARIOS`.  Returns the staged Machine or Fleet.
    """
    defaults, stage = SCENARIOS[VIEWS[args.view][0]]
    load, duration_ms, seed = (
        default if given is None else given
        for given, default in zip(
            (args.load, args.duration_ms, args.seed), defaults)
    )
    return stage(load, duration_ms * 1000.0, seed, args)


def run_view(args):
    """Stage, run, print and export one view; returns the printed text.

    The exports read the staged system's own ``.obs``, so they work
    for every view (a fleet included).
    """
    _scenario, snapshot, render = VIEWS[args.view]
    system = stage_view(args)
    system.run()
    if args.json:
        text = json.dumps(snapshot(system, args), indent=2,
                          sort_keys=args.view not in _UNSORTED_JSON)
    else:
        text = render(system, args)
    print(text)
    obs = system.obs
    spans, events = obs.spans, obs.events
    if args.export_trace and spans is not None:
        n = spans.to_chrome_trace(args.export_trace)
        print(f"wrote {n} trace events to {args.export_trace}",
              file=sys.stderr)
    if args.export_events:
        n = events.to_jsonl(args.export_events) if events is not None else 0
        print(f"wrote {n} events to {args.export_events}", file=sys.stderr)
    if args.openmetrics:
        n = write_openmetrics(obs.registry, args.openmetrics)
        print(f"wrote {n} OpenMetrics lines to {args.openmetrics}",
              file=sys.stderr)
    return text


def main(argv=None):
    """CLI: ``syrupctl <view>`` for every key of :data:`VIEWS`."""
    run_view(build_parser().parse_args(argv))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
