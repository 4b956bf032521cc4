"""Command-line entry point: regenerate any figure from the paper.

Usage::

    python -m repro fig6 a            # one panel of Fig. 6
    python -m repro fig7 c            # overlap efficiency panel
    python -m repro fig8 b            # execution-time breakdown panel
    python -m repro fig9 d            # switch-count panel
    python -m repro micro             # µ1 latency + µ2 overhead probes
    python -m repro export --jobs 8   # the whole evaluation, judged
    python -m repro cache stats       # inspect the on-disk result store
    python -m repro apps              # list registered workloads
    python -m repro sort --pes 8 --size 128 --threads 4
    python -m repro sort --timeline    # ASCII per-PE activity timeline
    python -m repro trace fft --out run.perfetto.json  # Perfetto trace
    python -m repro trace emc-sort --plan compiled     # cohort compiler

``REPRO_SCALE`` (tiny | small | large) picks the figure size ladder.
``export`` writes every figure as CSV plus ``RESULTS_<scale>.json``:
the series, the probe and ablation tables, and one verdict per paper
claim, each also printed as a ``PASS``/``FAIL`` line.
Figure-producing commands accept ``--jobs N`` (parallel simulation),
``--cache-dir DIR`` and ``--no-cache``; results persist under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), so warm re-runs
execute zero simulations.
"""

from __future__ import annotations

import argparse
import sys

from .api import get_app, result_ok
from .errors import ProgramError
from .experiments import (
    default_scale,
    fig6_panel,
    fig7_panel,
    fig8_panel,
    fig9_panel,
    format_fig6,
    format_fig7,
    format_fig8,
    format_fig9,
    measure_overhead_null_loop,
    measure_remote_read_latency,
)
from .experiments.fig6 import PANELS as FIG6_PANELS
from .experiments.fig8 import PANELS as FIG8_PANELS
from .metrics.counters import SwitchKind
from .metrics.report import format_table


def _positive_int(text: str) -> int:
    """argparse type for a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the execution-engine flags shared by figure commands."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for simulations (default: %(default)s)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result cache (memoise in-process only)")
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a Perfetto trace per executed job under DIR "
             "(cache hits produce no trace; off by default)")


def _progress_printer():
    """A \\r-rewriting progress line on interactive stderr, else None."""
    if not sys.stderr.isatty():
        return None

    def _print(status) -> None:
        print(f"\r  {status.describe()}", end="", file=sys.stderr, flush=True)

    return _print


def _configure_runner(args: argparse.Namespace) -> None:
    """Apply --jobs/--cache-dir/--no-cache to the process-global runner."""
    from .runner import configure

    configure(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=_progress_printer(),
        trace_dir=args.trace_dir,
    )


def _runner_summary() -> str:
    from .runner import get_options, stats

    st = stats()
    if sys.stderr.isatty():
        print(file=sys.stderr)  # terminate the \r progress line
    summary = f"runner: {st.describe()}"
    if not get_options().use_cache:
        summary += " (disk cache off)"
    return summary


def _cmd_figure(args: argparse.Namespace) -> None:
    _configure_runner(args)
    scale = default_scale()
    panel = args.panel
    if args.figure in ("fig6", "fig7"):
        n_pes = getattr(scale, FIG6_PANELS[panel][1])
        if args.figure == "fig6":
            series = fig6_panel(panel, scale)
            print(format_fig6(panel, series, n_pes))
            if args.plot:
                from .metrics import plot_curves

                curves = {f"n/P={npp}": curve for npp, curve in sorted(series.items())}
                print()
                print(plot_curves(curves, title=f"Fig 6({panel})", ylabel="comm [s]"))
        else:
            print(format_fig7(panel, fig7_panel(panel, scale), n_pes))
    else:
        _, size_role = FIG8_PANELS[panel]
        npp = scale.small_size if size_role == "small" else scale.large_size
        if args.figure == "fig8":
            print(format_fig8(panel, fig8_panel(panel, scale), scale.p_large, npp))
        else:
            print(format_fig9(panel, fig9_panel(panel, scale), scale.p_large, npp))


def _cmd_micro(_args: argparse.Namespace) -> None:
    points = measure_remote_read_latency(n_pes=64, reads=256)
    rows = [[p.target, p.hops, round(p.roundtrip_cycles, 1), round(p.microseconds, 3)]
            for p in points]
    print(format_table(["target PE", "hops", "roundtrip [cyc]", "latency [us]"], rows,
                       title="u1: remote read latency (paper: ~1 us)"))
    ov = measure_overhead_null_loop()
    print(f"\nu2: null-loop overhead: {ov.cycles_per_packet:.2f} cycles/packet "
          f"(EMC-Y: packet generation takes one clock)")


def _cmd_export(args: argparse.Namespace) -> None:
    from .experiments.results import export_results
    from .runner import reset_stats

    _configure_runner(args)
    reset_stats()
    written, verdicts = export_results(args.out, default_scale())
    for path in written:
        print(f"wrote {path}")
    for vid, problems in verdicts.items():
        print(f"FAIL {vid} {'; '.join(problems)}" if problems else f"PASS {vid}")
    print(_runner_summary())


def _cmd_cache(args: argparse.Namespace) -> None:
    import json

    from .runner import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        if args.json:
            print(json.dumps(cache.stats().to_dict(), indent=2, sort_keys=True))
        else:
            print(f"cache: {cache.stats().describe()}")
    else:
        dropped = cache.purge()
        print(f"purged {dropped} entries from {cache.root}")


def _cmd_goldens(args: argparse.Namespace) -> None:
    from .experiments.goldens import compare_goldens, write_goldens

    if args.write:
        print(f"wrote {write_goldens(args.write)}")
    elif args.check:
        problems = compare_goldens(args.check)
        if problems:
            print("\n".join(problems))
            sys.exit(1)
        print("goldens match")
    else:
        print("pass --write DIR or --check DIR")
        sys.exit(2)


def _cmd_apps(args: argparse.Namespace) -> None:
    """List every registered workload: names and unified signature."""
    import inspect

    from .api import APPS, app_names

    app_names()  # populate the registry
    entries = []
    seen: set[int] = set()
    for name in sorted(APPS):
        fn = APPS[name]
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        canonical, *aliases = getattr(fn, "app_names", (name,))
        params = list(inspect.signature(inspect.unwrap(fn)).parameters)
        entries.append({
            "name": canonical,
            "aliases": aliases,
            "signature": params,
        })
    if args.json:
        import json

        print(json.dumps(entries, indent=2, sort_keys=True))
        return
    for entry in entries:
        alias = f"  (aliases: {', '.join(entry['aliases'])})" if entry["aliases"] else ""
        print(f"{entry['name']}{alias}")
        print(f"  signature: {', '.join(entry['signature'])}")
    print("\nevery app runs through repro.run(...)")


def _cmd_app(args: argparse.Namespace) -> None:
    runner = get_app(args.app)
    kwargs: dict = {}
    recorder = None
    spans: list = []
    if args.trace or args.timeline:
        from .obs import Category, EventBus, RingRecorder

        # One bus feeds both the Perfetto recording and the timeline.
        bus = EventBus()
        kwargs["obs"] = bus
        if args.trace:
            recorder = RingRecorder(bus)
        if args.timeline:
            bus.subscribe(spans.append, [Category.BURST])
    kwargs.update(n_pes=args.pes, n=args.pes * args.size, h=args.threads,
                  seed=args.seed)
    result = runner(**kwargs)
    ok = result_ok(result)
    report = result.report
    if args.json:
        from .metrics import report_to_json

        print(report_to_json(report, indent=2))
    else:
        print(f"{args.app}: n={args.pes * args.size} P={args.pes} h={args.threads} "
              f"-> {'OK' if ok else 'WRONG RESULT'}")
        print(f"runtime {report.runtime_cycles} cycles "
              f"({report.runtime_seconds * 1e6:.1f} us); "
              f"communication {report.comm_fig6_seconds * 1e6:.1f} us")
        pct = report.breakdown.percentages()
        print("breakdown: " + ", ".join(f"{k} {v:.1f}%" for k, v in pct.items()))
        print("switches/PE: " + ", ".join(
            f"{k.value} {report.switches(k):.0f}" for k in SwitchKind))
        print(f"network: {report.network.summary()}")
    if args.timeline:
        from .obs import burst_timeline
        from .trace import render_timeline

        # Every PE gets a row, even one that never ran a burst.
        rows = {pe: [] for pe in range(args.pes)}
        rows.update(burst_timeline(spans))
        print(render_timeline(rows, start=0, end=report.runtime_cycles))
    if recorder is not None:
        from .obs import write_perfetto

        write_perfetto(args.trace, recorder.events, n_pes=args.pes)
        dropped = f", {recorder.dropped} dropped" if recorder.dropped else ""
        print(f"wrote {args.trace} ({len(recorder)} events{dropped}) "
              f"-- open in ui.perfetto.dev", file=sys.stderr)
    if not ok:
        sys.exit(1)


def _cmd_trace(args: argparse.Namespace) -> None:
    from .obs import (
        EventBus,
        RingRecorder,
        format_switch_table,
        packet_spans,
        switch_table,
        write_perfetto,
    )

    bus = EventBus()
    recorder = RingRecorder(bus, capacity=args.buffer)
    kwargs = dict(
        n_pes=args.pes, n=args.pes * args.size, h=args.threads, seed=args.seed, obs=bus
    )
    from .api import ExecutionPlan, call_with_plan

    plan = ExecutionPlan(compiled=args.plan == "compiled")
    result = call_with_plan(get_app(args.app), kwargs, plan)
    ok = result_ok(result)
    report = result.report
    write_perfetto(args.out, recorder.events, n_pes=args.pes)

    spans = packet_spans(recorder.events)
    dropped = f" ({recorder.dropped} dropped)" if recorder.dropped else ""
    print(f"{args.app}: n={args.pes * args.size} P={args.pes} h={args.threads} "
          f"-> {'OK' if ok else 'WRONG RESULT'}; "
          f"runtime {report.runtime_cycles} cycles")
    print(f"recorded {len(recorder)} events{dropped}, "
          f"{len(spans)} packet lifecycles")
    print(f"network: {report.network.summary()}")
    if report.cohort is not None:
        from .metrics.report import format_cohort

        print(format_cohort(report.cohort))
    print()
    print("context switches by kind (paper Tables 3/4):")
    print(format_switch_table(switch_table(recorder.events)))
    print(f"\nwrote {args.out} -- open in ui.perfetto.dev")
    if not ok:
        sys.exit(1)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for fig, panels in (("fig6", FIG6_PANELS), ("fig7", FIG6_PANELS),
                        ("fig8", FIG8_PANELS), ("fig9", FIG8_PANELS)):
        p = sub.add_parser(fig, help=f"regenerate one panel of {fig}")
        p.add_argument("panel", choices=sorted(panels))
        p.add_argument("--plot", action="store_true",
                       help="also draw an ASCII chart (fig6 only)")
        _add_runner_flags(p)
        p.set_defaults(func=_cmd_figure, figure=fig)

    p = sub.add_parser("micro", help="run the point-measurement probes")
    p.set_defaults(func=_cmd_micro)

    p = sub.add_parser(
        "export",
        help="regenerate all figures as CSV and judge every paper claim "
             "into RESULTS_<scale>.json")
    p.add_argument("--out", default="figures_csv", metavar="DIR",
                   help="output directory (default: %(default)s)")
    _add_runner_flags(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("cache", help="inspect or purge the on-disk result cache")
    p.add_argument("action", choices=["stats", "purge"])
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    p.add_argument("--json", action="store_true",
                   help="emit stats as JSON (CacheStats.to_dict())")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("apps", help="list registered workloads")
    p.add_argument("--json", action="store_true",
                   help="emit the registry as JSON")
    p.set_defaults(func=_cmd_apps)

    p = sub.add_parser("goldens", help="check or regenerate golden runs")
    p.add_argument("--write", metavar="DIR", help="write fresh goldens to DIR")
    p.add_argument("--check", metavar="DIR", help="diff fresh runs against DIR")
    p.set_defaults(func=_cmd_goldens)

    for app in ("sort", "fft"):
        p = sub.add_parser(app, help=f"run one {app} configuration")
        p.add_argument("--pes", type=_positive_int, default=8)
        p.add_argument("--size", type=_positive_int, default=128, help="elements per PE")
        p.add_argument("--threads", type=_positive_int, default=4)
        p.add_argument("--seed", type=int, default=0)
        # The timeline is text, so it cannot follow a JSON document.
        output = p.add_mutually_exclusive_group()
        output.add_argument("--json", action="store_true",
                            help="emit the full report as JSON")
        output.add_argument("--timeline", action="store_true",
                            help="render an ASCII per-PE activity timeline")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="record the run and write a Perfetto trace to FILE")
        p.set_defaults(func=_cmd_app, app=app)

    p = sub.add_parser(
        "trace",
        help="run one app under the event recorder and export a Perfetto trace")
    from .api import app_names

    p.add_argument("app", choices=app_names())
    p.add_argument("--out", default="run.perfetto.json", metavar="FILE",
                   help="output path (default: %(default)s)")
    p.add_argument("--pes", type=_positive_int, default=8)
    p.add_argument("--size", type=_positive_int, default=64, help="elements per PE")
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--buffer", type=_positive_int, default=1_000_000, metavar="N",
                   help="ring-buffer capacity in events (default: %(default)s)")
    p.add_argument("--plan", choices=["compiled"], default=None,
                   help="run under repro.ExecutionPlan(compiled=True): EM-C "
                        "threads go through the cohort compiler")
    p.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ProgramError as exc:
        # For a single app run, a ProgramError is a shape the app rejects:
        # a usage error.  Behind the runner it would mean a wrong answer.
        if args.func not in (_cmd_app, _cmd_trace):
            raise
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    main()
