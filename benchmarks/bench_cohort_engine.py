"""Cohort compiler benchmark: A/B against the interpreted engine.

Runs the fig6-shaped EM-C sort sweep (``emc-sort``) interpreted and
compiled and records byte identity (the compile oracle — metrics,
events, RunRecords and Perfetto must all match), cohort occupancy
(fraction of threads that actually ran compiled), and raw throughput
(events/sec) on each side.  The EM-C front-end compiles every thread
through the codegen tier (with fused Compute+read effects), so this is
where the compiler's speed lives; CI enforces a >=2x events/sec floor.
Native generator apps run on the interpreter under ``compiled=True``
and are not measured here.

Usage::

    python benchmarks/bench_cohort_engine.py                     # measure + print
    python benchmarks/bench_cohort_engine.py --write BENCH_engine.json
    python benchmarks/bench_cohort_engine.py --shape tiny \
        --check --floor 2.0                                      # CI smoke

``--check`` exits non-zero if any point diverged or if the compiled
events/sec fell below ``--floor`` x interpreted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from repro.compile.differential import CompileDifferentialHarness

#: Benchmark shapes: name -> (n_pes, per-PE elements, thread sweep).
#: Same geometry as the hotpath section of BENCH_engine.json.
SHAPES = {
    "paper": (16, 64, (1, 2, 4, 8)),
    "tiny": (8, 64, (1, 2, 4)),
}

#: The workload measured: the EM-C front-end, the tier that compiles.
APP = "emc-sort"

#: The ``cohort`` section's note in BENCH_engine.json.
COHORT_NOTE = (
    "Interpreted-vs-compiled A/B on the fig6-shaped EM-C sort sweep.  "
    "byte_identical and occupancy are deterministic; events/sec is "
    "host-dependent.  Both sides fire identical events, so speedup is "
    "the wall-clock ratio.  emc-sort exercises the EM-C codegen tier "
    "with fused Compute+read effects (the enforced >=2x win).  Native "
    "generator apps run on the interpreter under compiled=True and are "
    "not measured."
)


def measure(shape: str, repeats: int = 1) -> dict:
    """A/B the EM-C workload across the shape's thread sweep."""
    n_pes, npp, threads = SHAPES[shape]
    out: dict = {
        "shape": shape, "apps": {}, "metadata": {"cpu_count": os.cpu_count()},
    }
    harness = CompileDifferentialHarness(APP, seed=0)
    identical = True
    events = 0
    occupancy = []
    for h in threads:
        result = harness.run_pair(n_pes=n_pes, n=n_pes * npp, h=h)
        identical &= result.identical
        events += result.interpreted.events_fired
        occupancy.append((result.compiled.cohort or {}).get("occupancy", 0.0))

    # Throughput: interleave A/B repeats (so host-speed drift — CPU
    # frequency ramp, page-cache warming — hits both sides alike) and
    # take the best of each.  GC is off during timed regions; a
    # collection pause landing in one side skews the ratio.  Both sides
    # fire identical events (that is the oracle), so the events/sec
    # ratio is the wall-clock speedup.
    best = {False: 0.0, True: 0.0}
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            for compiled in (False, True):
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                for h in threads:
                    harness._run(
                        compiled, {"n_pes": n_pes, "n": n_pes * npp, "h": h}
                    )
                rate = events / (time.perf_counter() - t0)
                if gc_was_enabled:
                    gc.enable()
                best[compiled] = max(best[compiled], rate)
    finally:
        if gc_was_enabled:
            gc.enable()

    out["apps"][APP] = {
        "byte_identical": identical,
        "events": events,
        "occupancy": round(sum(occupancy) / len(occupancy), 3),
        "interpreted_events_per_sec": round(best[False], 1),
        "compiled_events_per_sec": round(best[True], 1),
        "speedup": round(best[True] / best[False], 3),
    }
    return out


def check(measured: dict, floor: float) -> int:
    """Identity must hold everywhere and every app must clear the floor."""
    failures = 0
    for app, res in measured["apps"].items():
        if not res["byte_identical"]:
            print(f"{measured['shape']}/{app}: DIVERGED "
                  f"(compiled run differs from interpreted)")
            failures += 1
            continue
        line = (
            f"{measured['shape']}/{app}: identical, occupancy "
            f"{res['occupancy']:.2f}, {res['speedup']:.2f}x events/sec "
            f"(floor {floor:.2f}x)"
        )
        if res["speedup"] < floor:
            line += " -> REGRESSION"
            failures += 1
        print(line)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), default="paper")
    ap.add_argument("--repeats", type=int, default=1, help="best-of-N timing")
    ap.add_argument("--write", metavar="FILE", help="record results as the baseline")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero on divergence or a floor miss")
    ap.add_argument("--floor", type=float, default=2.0,
                    help="minimum compiled/interpreted events/sec ratio "
                         "(default 2.0)")
    args = ap.parse_args(argv)

    measured = measure(args.shape, repeats=args.repeats)
    for app, res in measured["apps"].items():
        print(
            f"{args.shape}/{app}: "
            f"{'identical' if res['byte_identical'] else 'DIVERGED'}, "
            f"occupancy {res['occupancy']:.2f}, "
            f"{res['compiled_events_per_sec']:,.0f} ev/s compiled vs "
            f"{res['interpreted_events_per_sec']:,.0f} ev/s interpreted "
            f"({res['speedup']:.2f}x)"
        )

    if args.write:
        try:
            with open(args.write) as f:
                payload = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}
        payload["cohort"] = {"note": COHORT_NOTE,
                             "shapes": payload.get("cohort", {}).get("shapes", {})}
        payload["cohort"]["shapes"][args.shape] = measured
        with open(args.write, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.write}")
    if args.check:
        return check(measured, args.floor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
