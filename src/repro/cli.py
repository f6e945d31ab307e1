"""Command-line interface for the experiment harnesses.

Regenerate any of the paper's tables/figures from a shell::

    python -m repro figure2
    python -m repro figure6 --loads 100000 200000 --duration-ms 150
    python -m repro table2
    python -m repro all --quick

``--quick`` shrinks load grids and windows for a fast sanity pass; the
defaults match the benchmark suite's paper-scale sweeps.

``python -m repro <view>`` renders any ``syrupctl`` view — every key of
:data:`repro.syrupctl.VIEWS`: ``stats`` (per-hook metric counters from
a Figure-6-style run with metrics enabled), ``timeline`` (the dynamic
Figure-8 run with a mid-run policy switch), ``qdisc`` (an SRPT
figure_order point; see docs/scheduling-order.md), ``slo`` (one
closed-loop figure_adaptive point), ``promote`` (a figure_canary run;
see docs/robustness.md), ``cores`` (one figure_oversub elastic point;
see docs/oversubscription.md) and the rest — through the console
script's own stage -> run -> print path, with ``--loads`` /
``--duration-ms`` / ``--seed`` mapped onto its flags; see
docs/observability.md.
"""

import argparse
import sys

from repro import experiments, syrupctl

__all__ = ["main"]

_QUICK = {
    "figure2": dict(loads=[150_000, 450_000], duration_us=120_000.0,
                    warmup_us=30_000.0),
    "figure6": dict(loads=[100_000, 250_000], duration_us=120_000.0,
                    warmup_us=30_000.0),
    "figure7": dict(ls_loads=[100_000, 300_000], duration_us=120_000.0,
                    warmup_us=30_000.0),
    "figure8": dict(loads=[4_000, 10_000], duration_us=300_000.0,
                    warmup_us=75_000.0),
    "figure9": dict(loads=[1_000_000, 2_500_000], duration_us=20_000.0,
                    warmup_us=5_000.0),
    "figure_adaptive": dict(loads=[240_000], duration_us=120_000.0,
                            warmup_us=30_000.0,
                            variants=["fifo", "adaptive"]),
    "figure_canary": dict(duration_us=250_000.0, warmup_us=60_000.0),
    "figure_faults": dict(loads=[50_000, 100_000], duration_us=120_000.0,
                          warmup_us=30_000.0),
    "figure_fleet": dict(num_machines=24, rps=280_000, num_users=100_000,
                         duration_us=60_000.0, warmup_us=10_000.0),
    "figure_interference": dict(loads=[(60_000, 420_000)],
                                duration_us=120_000.0, warmup_us=30_000.0,
                                variants=["isolated", "contended",
                                          "blame_shed"]),
    "figure_order": dict(loads=[120_000, 240_000], duration_us=120_000.0,
                         warmup_us=30_000.0),
    "figure_oversub": dict(duration_us=160_000.0, warmup_us=16_000.0,
                           variants=["static_2_3", "static_3_2",
                                     "elastic"]),
    "figure_tail": dict(loads=[120_000], duration_us=120_000.0,
                        warmup_us=30_000.0),
    "table2": dict(samples=128),
    "table3": dict(n_ops=500),
}

#: experiment name -> its ``run_*`` harness, for every harness the
#: experiments package exports.
_RUNNERS = {
    name[len("run_"):]: getattr(experiments, name)
    for name in experiments.__all__
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate Syrup (SOSP 2021) tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_RUNNERS) + ["all"] + list(syrupctl.VIEWS),
        help=(
            "which experiment to run ('all' runs every one; "
            f"{', '.join(syrupctl.VIEWS)} render the syrupctl views)"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced grids/windows for a fast sanity pass",
    )
    parser.add_argument(
        "--loads", type=int, nargs="+", default=None,
        help="override the load grid (RPS); for figure7 these are LS loads",
    )
    parser.add_argument(
        "--duration-ms", type=float, default=None,
        help="measurement window per point, in milliseconds",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the RNG seed"
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="also write the rendered table(s) to this file",
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="render an ASCII latency-vs-load plot for figure experiments",
    )
    parser.add_argument(
        "--export-spans", type=str, default=None, metavar="DIR",
        help=(
            "figure_tail only: also write Chrome span traces and raw "
            "tail-analysis JSON per policy/load point into DIR"
        ),
    )
    return parser


def _kwargs_for(name, args):
    kwargs = dict(_QUICK[name]) if args.quick else {}
    if args.loads is not None and name.startswith("figure"):
        if name == "figure_fleet":
            kwargs["rps"] = args.loads[0]  # one aggregate rack load
        elif name == "figure_canary":
            kwargs["load"] = args.loads[0]  # one calibrated load point
        elif name == "figure_interference":
            # two loads = one (victim, aggressor) pair
            kwargs["loads"] = [(args.loads[0],
                                args.loads[1 if len(args.loads) > 1 else 0])]
        elif name == "figure_oversub":
            kwargs["base_rps"] = args.loads[0]  # per-app baseline RPS
        else:
            key = "ls_loads" if name == "figure7" else "loads"
            kwargs[key] = args.loads
    if args.duration_ms is not None and name.startswith("figure"):
        kwargs["duration_us"] = args.duration_ms * 1000.0
        kwargs["warmup_us"] = args.duration_ms * 250.0  # 25% warmup
    if args.seed is not None and name.startswith("figure"):
        kwargs["seed"] = args.seed
    if name == "figure_tail" and args.export_spans is not None:
        kwargs["export_dir"] = args.export_spans
    return kwargs


#: plot axes per figure: (series column, x column, y column)
_PLOT_AXES = {
    "figure2": ("policy", "load_rps", "p99_us"),
    "figure6": ("policy", "load_rps", "p99_us"),
    "figure7": ("policy", "ls_load_rps", "ls_p99_us"),
    "figure8": ("variant", "load_rps", "get_p99_us"),
    "figure9": ("mode", "load_rps", "p999_us"),
    "figure_adaptive": ("variant", "load_rps", "get_p99_us"),
    "figure_faults": ("variant", "load_rps", "p99_us"),
    "figure_order": ("discipline", "load_rps", "get_p99_us"),
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.experiment in syrupctl.VIEWS:
        view_args = syrupctl.build_parser().parse_args([args.experiment])
        if args.loads is not None:
            view_args.load = args.loads[0]
        view_args.duration_ms = args.duration_ms
        view_args.seed = args.seed
        text = syrupctl.run_view(view_args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        return 0
    names = sorted(_RUNNERS) if args.experiment == "all" else [args.experiment]
    rendered = []
    for name in names:
        table = _RUNNERS[name](**_kwargs_for(name, args))
        text = table.render()
        if args.plot and name in _PLOT_AXES:
            from repro.stats.plot import plot_table

            series, x_col, y_col = _PLOT_AXES[name]
            text += "\n\n" + plot_table(table, series, x_col, y_col)
        print(text)
        print()
        rendered.append(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n\n".join(rendered) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
