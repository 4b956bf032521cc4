#!/usr/bin/env python3
"""The repository benchmark: paper-shape EM-X sweeps, timed on the host.

Run from the repository root::

    python3 perfbench/run.py --workload sort-fig6 --seed 0 --seconds 15 --trace 0

``--trace 0`` times full h-sweeps with nothing installed and prints the
end-to-end metrics; ``--trace 1`` adds a traced run that wraps each
layer's entry points (``perfbench/layers.py``) and prints the per-layer
metrics.  Both check every simulated run (see ``workloads.py``) and end
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Two more modes print tables rather than a result: ``--cprofile`` compares
the wrapper attribution with a cProfile of ``Engine.run`` mapped to the
same layers, and ``--print-digests`` prints the comparable-report
digests that ``digests.json`` records.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 3
#: The warm-up point every process runs before timing: h and seed.
WARM_H = 8
#: Share of ``--seconds`` the traced run gives to untraced sweeps (the
#: overhead baseline and the stats the traced sweeps must reproduce).
UNTRACED_SHARE = 1 / 3
PROBE_TIMEOUT_S = 120


def load_checkout() -> None:
    """Make this checkout's ``src/repro`` importable, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/repro not found; run from a full checkout")
    sys.path[:0] = [SRC, HERE]


def host_metadata() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib / 1024.0


def recorded_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def expected_digests(recorded: dict, wl, seed: int) -> dict[int, str] | None:
    per_seed = recorded.get(wl.name, {}).get(str(seed))
    return None if per_seed is None else {int(h): d for h, d in per_seed.items()}


# ----------------------------------------------------------------------
# Set-up and timing
# ----------------------------------------------------------------------
def warm_up(wl):
    """Registry plus one point: what a fresh process pays before timing."""
    import repro
    from workloads import DEFAULT_SEED, release_freed_memory, run_point

    repro.app_names()
    point = run_point(wl, WARM_H, DEFAULT_SEED)
    gc.collect()
    release_freed_memory()
    return point


def time_setup(wl) -> tuple[float, str]:
    """Seconds from starting a fresh interpreter until it has warmed up;
    also returns the warm-up digest the probe printed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", wl.name]
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    return elapsed, line.strip()


def timed_sweeps(wl, seed: int, seconds: float) -> tuple[list, float]:
    """Back-to-back sweeps until ``seconds`` have passed (at least one).

    Also returns the process's peak RSS in MB as of the first sweep's
    end, which, unlike the final peak, does not grow with the number of
    sweeps that fit in ``seconds``.
    """
    from workloads import run_sweep

    sweeps = []
    started = time.perf_counter()
    while not sweeps or time.perf_counter() - started < seconds:
        gc.collect()
        sweeps.append(run_sweep(wl, seed))
        if len(sweeps) == 1:
            rss_mb = peak_rss_mb()
    return sweeps, rss_mb


def check_sweeps(sweeps: list, expected: dict[int, str] | None) -> list[str]:
    """One message per failed point: raised, failed self-verification,
    or a comparable report differing from the recorded digest (or, for
    a seed with none recorded, from this run's first sweep)."""
    reference = expected or sweeps[0].digests
    problems = []
    for i, sweep in enumerate(sweeps):
        for p in sweep.points:
            if p.error is not None:
                problems.append(f"sweep {i} h={p.h}: {p.error}")
            elif p.digest != reference.get(p.h):
                problems.append(
                    f"sweep {i} h={p.h}: digest {p.digest} != {reference.get(p.h)}")
    return problems


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# --trace 0: end-to-end
# ----------------------------------------------------------------------
def end_to_end(wl, seed: int, seconds: float) -> dict:
    from workloads import DEFAULT_SEED, best_sweep_s, paper_violations

    recorded = recorded_digests()
    warm_expected = expected_digests(recorded, wl, DEFAULT_SEED)[WARM_H]
    problems = []
    warm = warm_up(wl)
    setups = []
    for _ in range(SETUP_PROBES):
        elapsed, probe_digest = time_setup(wl)
        setups.append(elapsed)
        if probe_digest != warm_expected:
            problems.append(f"setup probe digest {probe_digest!r} != {warm_expected}")
    if warm.digest != warm_expected:
        problems.append(f"warm-up digest {warm.digest} != {warm_expected}")

    sweeps, rss_mb = timed_sweeps(wl, seed, seconds)
    problems += check_sweeps(sweeps, expected_digests(recorded, wl, seed))
    violations = paper_violations(wl, sweeps[0].reports)
    walls = [s.wall_s for s in sweeps]
    wall = best_sweep_s(sweeps)
    cycles = sum(r.runtime_cycles for r in sweeps[0].reports.values())
    attempted = 1 + SETUP_PROBES + sum(len(s.points) for s in sweeps)
    return {
        "info": {
            "sweeps": len(sweeps),
            "sweep_wall_s": walls,
            "point_wall_s": [[p.wall_s for p in sw.points] for sw in sweeps],
            "setup_probe_s": setups,
            "fail_rate": len(problems) / attempted,
            "paper_check_violations": violations,
            "problems": problems[:20],
        },
        "correct": not problems and not violations,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            "wall_s": metric(wall, "s"),
            "sim_cycles_per_s": metric(cycles / wall, "cycles/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


# ----------------------------------------------------------------------
# --trace 1: per layer
# ----------------------------------------------------------------------
def per_layer(wl, seed: int, seconds: float) -> dict:
    from layers import SpanClock, installed
    from repro.network.stats import NetworkStats
    from workloads import best_sweep_s, paper_violations

    warm_up(wl)
    untraced, _ = timed_sweeps(wl, seed, seconds * UNTRACED_SHARE)
    spans = SpanClock()
    with installed(spans):
        traced, _ = timed_sweeps(wl, seed, seconds * (1 - UNTRACED_SHARE))
    expected = expected_digests(recorded_digests(), wl, seed)
    problems = check_sweeps(untraced, expected)
    # A trace that changes the machine is void: every traced point must
    # reproduce the untraced run's simulated stats exactly.
    problems += check_sweeps(traced, untraced[0].digests)
    attempted = sum(len(s.points) for s in untraced + traced)
    reports = list(untraced[0].reports.values())
    violations = paper_violations(wl, untraced[0].reports)

    n = len(traced)
    per_sweep = lambda layer: spans.self_s(layer) / n  # noqa: E731
    events = sum(r.events_fired for r in reports)
    net = NetworkStats()
    for r in reports:
        net.packets += r.network.packets
        net.total_latency += r.network.total_latency
        net.total_hops += r.network.total_hops
        net.max_port_wait = max(net.max_port_wait, r.network.max_port_wait)
        net.latency_hist.update(r.network.latency_hist)
    counters = [c for r in reports for c in r.counters]
    cohorts = [r.cohort or {} for r in reports]
    obs_points = untraced[0].points
    m = {
        "sim.self_s": metric(per_sweep("sim"), "s"),
        "sim.events": metric(events, "count"),
        "sim.ns_per_event": metric(per_sweep("sim") * 1e9 / events, "ns"),
        "network.self_s": metric(per_sweep("network"), "s"),
        "network.packets": metric(net.packets, "count"),
        "network.hops": metric(net.total_hops, "count"),
        "network.latency_mean_cyc": metric(net.mean_latency, "cycles"),
        "network.latency_p95_cyc": metric(net.p95_latency, "cycles"),
        "network.port_wait_max_cyc": metric(net.max_port_wait, "cycles"),
        "processor.exu.self_s": metric(per_sweep("processor.exu"), "s"),
        "processor.exu.switches": metric(
            sum(sum(c.switches.values()) for c in counters), "count"),
        "processor.exu.comm_idle_cycles": metric(
            sum(r.breakdown.communication for r in reports), "cycles"),
        "processor.ibu.self_s": metric(per_sweep("processor.ibu"), "s"),
        "processor.ibu.dma_serviced": metric(
            sum(c.reads_serviced for c in counters), "count"),
        "processor.ibu.overflows": metric(sum(c.ibu_overflows for c in counters), "count"),
        "processor.obu.self_s": metric(per_sweep("processor.obu"), "s"),
        "processor.obu.packets_sent": metric(
            spans.calls["OutputBufferUnit.inject_at"] // n, "count"),
        "memory.matching.self_s": metric(per_sweep("memory.matching"), "s"),
        "memory.matching.offers": metric(spans.calls["MatchingMemory.offer"] // n, "count"),
        "core.sync.self_s": metric(per_sweep("core.sync"), "s"),
        "core.sync.stall_cycles": metric(
            sum(c.sync_stall_cycles for c in counters), "cycles"),
        "guest.self_s": metric(per_sweep("guest"), "s"),
        "guest.resumes": metric(spans.calls["guest.send"] // n, "count"),
        "compile.self_s": metric(per_sweep("compile"), "s"),
        "compile.occupancy": metric(
            statistics.mean(c.get("occupancy", 0.0) for c in cohorts), "ratio"),
        "compile.bailouts": metric(sum(c.get("bailouts", 0) for c in cohorts), "count"),
        "compile.record_failures": metric(
            sum(c.get("record_failures", 0) for c in cohorts), "count"),
        "obs.emit_s": metric(per_sweep("obs"), "s"),
        "obs.events": metric(sum(p.obs_events for p in obs_points), "count"),
        "obs.dropped": metric(sum(p.obs_dropped for p in obs_points), "count"),
        "obs.export_s": metric(statistics.median(
            sum(p.export_s for p in s.points) for s in untraced), "s"),
        "trace.overhead_ratio": metric(
            best_sweep_s(traced) / best_sweep_s(untraced), "ratio"),
        "trace.coverage": metric(spans.coverage, "ratio"),
        # The rest of a sweep (machine build, inputs, verification,
        # export) is outside every layer span.
        "trace.engine_share": metric(
            spans.outer_ns["sim"] / 1e9 / sum(s.wall_s for s in traced), "ratio"),
        "fail_rate": metric(len(problems) / attempted, "ratio"),
        "paper_check_violations": metric(len(violations), "count"),
    }
    return {
        "info": {
            "untraced_sweeps": len(untraced),
            "traced_sweeps": n,
            "problems": problems[:20],
            "paper_check_violations": violations,
        },
        "correct": not problems and not violations,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": m,
    }


# ----------------------------------------------------------------------
# Modes for people
# ----------------------------------------------------------------------
def cprofile_crosscheck(wl, seed: int) -> None:
    """Print wrapper shares beside cProfile shares, per layer."""
    import cProfile
    import pstats

    from layers import LAYERS, SpanClock, installed, profile_layers
    from repro.sim.engine import Engine
    from workloads import run_sweep

    warm_up(wl)
    spans = SpanClock()
    with installed(spans):
        run_sweep(wl, seed)
    wrapped = {layer: spans.self_s(layer) for layer in LAYERS}

    profiler = cProfile.Profile()
    run = Engine.run

    def profiled_run(self, *args, **kwargs):
        profiler.enable()
        try:
            return run(self, *args, **kwargs)
        finally:
            profiler.disable()

    Engine.run = profiled_run
    try:
        run_sweep(wl, seed)
    finally:
        Engine.run = run
    profiled = profile_layers(pstats.Stats(profiler).stats)

    w_total = sum(wrapped.values())
    p_total = sum(profiled.values())
    print(f"{wl.name} seed={seed}: share of Engine.run host time per layer")
    print(f"{'layer':18s} {'wrapper':>8s} {'cProfile':>8s} {'diff':>7s}")
    for layer in (*LAYERS, "other"):
        w = wrapped.get(layer, 0.0) / w_total
        p = profiled.get(layer, 0.0) / p_total
        print(f"{layer:18s} {w:8.3f} {p:8.3f} {w - p:+7.3f}")
    print(f"trace.coverage {spans.coverage:.4f}")


def print_digests() -> None:
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, run_sweep

    out = {}
    for name, wl in WORKLOADS.items():
        out[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            sweep = run_sweep(wl, seed)
            if any(p.error for p in sweep.points):
                sys.exit(f"{name} seed={seed}: {[p.error for p in sweep.points]}")
            out[name][str(seed)] = {str(h): d for h, d in sweep.digests.items()}
    print(json.dumps(out, indent=2, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cprofile", action="store_true",
                        help="compare wrapper and cProfile layer shares")
    parser.add_argument("--print-digests", action="store_true",
                        help="print the digests digests.json records")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_checkout()
    from workloads import WORKLOADS

    if args.print_digests:
        print_digests()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        print(warm_up(wl).digest, flush=True)
        return 0
    if args.cprofile:
        cprofile_crosscheck(wl, args.seed)
        return 0

    measure = per_layer if args.trace else end_to_end
    result = measure(wl, args.seed, args.seconds)
    info = result.pop("info")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "host": host_metadata(), **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
