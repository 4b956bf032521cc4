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
import os
import sys

from .api import get_app, result_ok
from .errors import ProgramError
from .experiments import THREAD_SWEEP, default_scale
from .experiments.figures import FIGURES, PANELS, format_panel, panel, panel_entry, panel_specs
from .experiments.microbench import probes
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


def _progress_printer():
    """A \\r-rewriting progress line on interactive stderr, else None."""
    if not sys.stderr.isatty():
        return None

    def _print(status) -> None:
        print(f"\r  {status.describe()}", end="", file=sys.stderr, flush=True)

    return _print


def _runner(args: argparse.Namespace):
    """The command's one runner, from --jobs, --cache-dir and --no-cache."""
    from .runner import ResultCache, Runner

    return Runner(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        progress=_progress_printer(),
    )


def _end_progress_line(runner) -> None:
    """Terminate the \\r progress line, which the runner draws on a
    terminal whenever it executes jobs."""
    if runner.progress is not None and runner.stats.executed:
        print(file=sys.stderr)


def _runner_summary(runner) -> str:
    _end_progress_line(runner)
    summary = f"runner: {runner.stats.describe()}"
    if runner.cache is None:
        summary += " (disk cache off)"
    return summary


def _cmd_figure(args: argparse.Namespace) -> None:
    p = panel(args.figure, args.panel, default_scale())
    runner = _runner(args)
    records = runner.run(panel_specs(p, THREAD_SWEEP))
    _end_progress_line(runner)
    entry = panel_entry(p, records, THREAD_SWEEP)
    print(format_panel(args.figure, args.panel, entry))
    if args.plot:
        from .metrics import plot_curves

        curves = {f"n/P={npp}": curve for npp, curve in sorted(entry["series"].items())}
        print()
        print(plot_curves(curves, title=f"Fig 6({args.panel})", ylabel="comm [s]"))


def _cmd_micro(_args: argparse.Namespace) -> None:
    mu1, mu2 = probes().values()
    rows = [[r["target"], r["hops"], round(r["roundtrip_cycles"], 1), round(r["latency_us"], 3)]
            for r in mu1["rows"]]
    print(format_table(["target PE", "hops", "roundtrip [cyc]", "latency [us]"], rows,
                       title=mu1["title"]))
    [row] = mu2["rows"]
    print(f"\n{mu2['title']}\n{row['cycles_per_packet']:.2f} cycles/packet "
          f"over {row['writes']} writes")


def _cmd_export(args: argparse.Namespace) -> None:
    from .experiments.results import export_results

    runner = _runner(args)
    written, verdicts = export_results(args.out, default_scale(), runner)
    for path in written:
        print(f"wrote {path}")
    for vid, problems in verdicts.items():
        print(f"FAIL {vid} {'; '.join(problems)}" if problems else f"PASS {vid}")
    print(_runner_summary(runner))


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
    events = recorder.events
    write_perfetto(args.out, events, n_pes=args.pes)

    spans = packet_spans(events)
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
    print(format_switch_table(switch_table(events)))
    print(f"\nwrote {args.out} -- open in ui.perfetto.dev")
    if not ok:
        sys.exit(1)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for fig in FIGURES:
        p = sub.add_parser(fig, help=f"regenerate one panel of {fig}")
        p.add_argument("panel", choices=sorted(PANELS))
        if fig == "fig6":
            p.add_argument("--plot", action="store_true", help="also draw an ASCII chart")
        _add_runner_flags(p)
        p.set_defaults(func=_cmd_figure, figure=fig, plot=False)

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
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`repro fig6 a | head -1`).  Point
        # stdout at devnull so the flush at interpreter exit cannot raise
        # again, as the SIGPIPE note in Python's `signal` docs shows.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except ProgramError as exc:
        # For a single app run, a ProgramError is a shape the app rejects:
        # a usage error.  Behind the runner it would mean a wrong answer.
        if args.func not in (_cmd_app, _cmd_trace):
            raise
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    main()
