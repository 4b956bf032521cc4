"""Engine hot-path benchmark: events/second through the calendar queue.

Runs the fig6-shaped sort and FFT sweeps (P=16, n/P=64, h ∈ {1,2,4,8})
and reports raw simulator throughput.  For a machine-independent
regression signal it also re-runs the same sweep on
:class:`~repro.sim.queue.ReferenceEventQueue` (the original heapq
engine, which the generic run loop still supports) and records the
calendar queue's *speedup* over it — a ratio that is stable across CI
hardware where absolute events/sec are not.

Usage::

    python benchmarks/bench_engine_hotpath.py                      # measure + print
    python benchmarks/bench_engine_hotpath.py --write BENCH_engine.json
    python benchmarks/bench_engine_hotpath.py --check BENCH_engine.json \
        --shape tiny --threshold 0.25                              # CI perf smoke

Each repeat runs the calendar sweep and then the reference sweep back
to back, so both sides of one ratio see the host at the same moment;
the recorded speedup is the median of the per-repeat ratios.  (A ratio
of the best rate on each side pairs two different moments, and on a
shared host it moved by a third between runs minutes apart.)

``--check`` exits non-zero when the measured speedup falls more than
``--threshold`` (default 25 %) below the recorded baseline for the same
shape.  ``--write`` records each shape with the host it ran on (CPU
count, Python version, platform), since absolute events/sec are only
comparable on one host.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import time

from repro.api import get_app

#: Benchmark shapes: name -> (n_pes, per-PE elements, thread sweep).
SHAPES = {
    "paper": (16, 64, (1, 2, 4, 8)),  # fig6 sweep
    "tiny": (8, 64, (1, 2, 4)),  # CI smoke: big enough to exercise the hot path, seconds even on the heapq engine
}


@contextlib.contextmanager
def _reference_engine():
    """Build machines on the reference heapq queue (generic run loop)."""
    from repro.machine import machine as machine_mod
    from repro.sim.engine import Engine
    from repro.sim.queue import ReferenceEventQueue

    orig = machine_mod.Engine
    machine_mod.Engine = lambda max_cycles: Engine(max_cycles, queue=ReferenceEventQueue())
    try:
        yield
    finally:
        machine_mod.Engine = orig


def _sweep(app: str, shape: str) -> tuple[int, float]:
    """Run one app across the shape's thread sweep; (events, seconds)."""
    n_pes, npp, threads = SHAPES[shape]
    fn = get_app(app)
    events = 0
    t0 = time.perf_counter()
    for h in threads:
        result = fn(n_pes=n_pes, n=n_pes * npp, h=h, seed=0)
        events += result.report.events_fired
    return events, time.perf_counter() - t0


def host() -> dict:
    """The host a measurement ran on."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure(shape: str, repeats: int = 1) -> dict:
    """Measure both apps on both queues, ``repeats`` back-to-back pairs each.

    The speedup is the median of the pairs' ratios; the events/sec
    columns are each side's best repeat.
    """
    out: dict = {"shape": shape, "host": host(), "apps": {}}
    for app in ("sort", "fft"):
        best = best_ref = 0.0
        events = 0
        ratios = []
        for _ in range(repeats):
            events, secs = _sweep(app, shape)
            with _reference_engine():
                _, ref_secs = _sweep(app, shape)
            best = max(best, events / secs)
            best_ref = max(best_ref, events / ref_secs)
            ratios.append(ref_secs / secs)
        out["apps"][app] = {
            "events": events,
            "events_per_sec": round(best, 1),
            "reference_events_per_sec": round(best_ref, 1),
            "speedup_vs_reference": round(statistics.median(ratios), 3),
            "speedups": [round(r, 3) for r in ratios],
        }
    return out


def check(measured: dict, baseline_path: str, threshold: float) -> int:
    """Compare measured speedups against the recorded baseline."""
    with open(baseline_path) as f:
        recorded = json.load(f)
    shape = measured["shape"]
    base = recorded["shapes"].get(shape)
    if base is None:
        print(f"no recorded baseline for shape {shape!r} in {baseline_path}")
        return 2
    failures = 0
    for app, res in measured["apps"].items():
        want = base["apps"][app]["speedup_vs_reference"]
        got = res["speedup_vs_reference"]
        floor = want * (1.0 - threshold)
        verdict = "ok" if got >= floor else "REGRESSION"
        print(
            f"{shape}/{app}: speedup {got:.2f}x vs baseline {want:.2f}x "
            f"(floor {floor:.2f}x) -> {verdict}"
        )
        if got < floor:
            failures += 1
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), default="paper")
    ap.add_argument("--repeats", type=int, default=1,
                    help="calendar/reference pairs per app; the median ratio counts")
    ap.add_argument("--write", metavar="FILE", help="record results as the baseline")
    ap.add_argument("--check", metavar="FILE", help="compare against a recorded baseline")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional speedup regression (default 0.25)")
    args = ap.parse_args(argv)

    measured = measure(args.shape, repeats=args.repeats)
    for app, res in measured["apps"].items():
        print(
            f"{args.shape}/{app}: {res['events']} events, "
            f"{res['events_per_sec']:,.0f} ev/s calendar vs "
            f"{res['reference_events_per_sec']:,.0f} ev/s reference "
            f"({res['speedup_vs_reference']:.2f}x)"
        )

    if args.write:
        try:
            with open(args.write) as f:
                payload = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {"shapes": {}}
        payload["shapes"][args.shape] = measured
        with open(args.write, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.write}")
    if args.check:
        return check(measured, args.check, args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
