"""Shard-scaling benchmark: adaptive-window PDES vs sequential.

Runs the fig6-shaped sort sweep under ``repro.sim.parallel`` at K in
{1, 2, 4} shard processes and records wall-clock speedup versus K=1,
plus the window count the adaptive scheme is judged by:

* **windows** — total barrier rounds across the sweep at K=2 (per-pair
  lookahead matrix, coalesced windows) versus the *uncoalesced*
  baseline — the wall-to-wall window count ``ceil(runtime / L)`` a
  fixed-step protocol would take.  The comparison is a deterministic
  property of the protocol, so ``--check`` gates it on every host: the
  adaptive windows must undercut the uncoalesced baseline by the
  per-shape floor (30% on the tiny CI shape).
* **speedup** — K=4 must beat K=1 by >= 2x, gated only when the host
  has >= 4 cores (shards timeshare below that and the ratio measures
  the host, not the engine).
* **metrics identity** — every sharded run's total ``events_fired`` is
  compared across K; any mismatch fails the benchmark outright rather
  than producing a fast wrong number.

Usage::

    python benchmarks/bench_parallel_engine.py                    # measure + print
    python benchmarks/bench_parallel_engine.py --repeats 3 --write BENCH_engine.json
    python benchmarks/bench_parallel_engine.py --shape tiny --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.api import ExecutionPlan, run

#: Benchmark shapes: name -> (n_pes, per-PE elements, thread sweep).
SHAPES = {
    "paper": (64, 64, (1, 2, 4, 8)),  # fig6 sweep at P=64
    "tiny": (16, 16, (1, 2)),  # CI smoke: seconds even at K=4 on one core
}

SHARD_COUNTS = (1, 2, 4)

#: Shard count the window accounting is recorded at.
WINDOW_K = 2

#: Minimum window reduction vs the uncoalesced baseline, per shape.
#: The tiny sweep's short runs are dominated by idle stretches the
#: coalescer can jump; the paper sweep keeps every shard busier, so
#: its deterministic floor sits lower.
REDUCTION_FLOOR_PCT = {"tiny": 30.0, "paper": 15.0}


def _sweep(shape: str, shards: int | None):
    """One sort sweep at one shard count; (events, seconds, windows).

    ``windows`` accumulates the barrier accounting of every sharded run
    in the sweep: total rounds, coalesced jumps, and the uncoalesced
    baseline ``ceil(runtime / L)`` — the rounds a fixed-step window
    protocol (no idle-gap jumping) would need for the same runs.
    """
    n_pes, npp, threads = SHAPES[shape]
    events = 0
    windows = {"count": 0, "coalesced": 0, "uncoalesced_baseline": 0}
    t0 = time.perf_counter()
    for h in threads:
        report = run(
            "sort", n_pes=n_pes, n=n_pes * npp, h=h,
            plan=ExecutionPlan(shards=shards or 0),
        )
        events += report.events_fired
        if report.windows is not None:
            w = report.windows
            windows["count"] += w["count"]
            windows["coalesced"] += w["coalesced"]
            scalar_l = w["lookahead_min"]  # min off-diagonal == scalar L
            windows["uncoalesced_baseline"] += -(-report.runtime_cycles // scalar_l)
    return events, time.perf_counter() - t0, windows


def measure(shape: str, repeats: int = 1) -> dict:
    """Best-of-``repeats`` wall time at each K, plus the window count."""
    out: dict = {
        "shape": shape,
        "cores_detected": os.cpu_count(),
        "shards": {},
    }
    events_by_k: dict[str, int] = {}
    adaptive_windows: dict | None = None
    for shards in (None, *SHARD_COUNTS):
        label = "legacy" if shards is None else str(shards)
        best = float("inf")
        events = 0
        for _ in range(repeats):
            events, secs, windows = _sweep(shape, shards)
            best = min(best, secs)
        out["shards"][label] = {"events": events, "wall_seconds": round(best, 3)}
        if shards is not None:
            # Legacy counts its own event scaffolding, so only the
            # sharded runs participate in the cross-K identity check.
            events_by_k[label] = events
        if shards == WINDOW_K:
            adaptive_windows = windows
    base = out["shards"]["1"]["wall_seconds"]
    for label, res in out["shards"].items():
        res["speedup_vs_k1"] = round(base / res["wall_seconds"], 3)

    assert adaptive_windows is not None
    out["windows"] = {
        "shards": WINDOW_K,
        "adaptive": adaptive_windows["count"],
        "uncoalesced_baseline": adaptive_windows["uncoalesced_baseline"],
        "coalesced_jumps": adaptive_windows["coalesced"],
        "reduction_vs_uncoalesced_pct": round(
            100.0
            * (1 - adaptive_windows["count"] / adaptive_windows["uncoalesced_baseline"]),
            1,
        ),
    }

    distinct = set(events_by_k.values())
    out["metrics_identical_across_k"] = len(distinct) == 1
    if len(distinct) != 1:
        raise SystemExit(
            f"determinism violation: events_fired differs across shard "
            f"counts: {events_by_k}"
        )
    return out


def check(measured: dict) -> list[str]:
    """The CI gates; returns failure strings (empty = pass)."""
    failures: list[str] = []
    w = measured["windows"]
    floor = REDUCTION_FLOOR_PCT[measured["shape"]]
    if w["reduction_vs_uncoalesced_pct"] < floor:
        failures.append(
            f"window coalescing must cut >={floor}% of the uncoalesced "
            f"baseline on the {measured['shape']} shape, got "
            f"{w['reduction_vs_uncoalesced_pct']}% "
            f"({w['adaptive']} vs {w['uncoalesced_baseline']})"
        )
    cores = measured["cores_detected"] or 1
    speedup = measured["shards"]["4"]["speedup_vs_k1"]
    if cores >= 4 and speedup < 2.0:
        failures.append(
            f"K=4 must be >=2x faster than K=1 on a {cores}-core host, "
            f"got {speedup}x"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), default="paper")
    ap.add_argument("--repeats", type=int, default=1, help="best-of-N timing")
    ap.add_argument("--write", metavar="FILE", help="record results under the 'parallel' section")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero unless every gate passes (metrics "
                         "identity, window reduction, conditional speedup)")
    args = ap.parse_args(argv)

    measured = measure(args.shape, repeats=args.repeats)
    for label, res in measured["shards"].items():
        print(
            f"{args.shape}/sort shards={label}: {res['wall_seconds']:.2f}s "
            f"({res['speedup_vs_k1']:.2f}x vs K=1), {res['events']} events"
        )
    w = measured["windows"]
    print(
        f"windows at K={w['shards']}: adaptive={w['adaptive']} "
        f"uncoalesced={w['uncoalesced_baseline']} "
        f"(-{w['reduction_vs_uncoalesced_pct']}%)"
    )
    print(f"cores detected: {measured['cores_detected']}")

    if args.write:
        try:
            with open(args.write) as f:
                payload = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}
        section = payload.setdefault("parallel", {})
        section.setdefault("shapes", {})[args.shape] = measured
        section["note"] = (
            "Best-of-N A/B of the sharded conservative-window engine "
            "(repro.sim.parallel) on the fig6-shaped sort sweep.  K=1 is "
            "the same window protocol over a loopback exchange; 'legacy' "
            "is the pre-existing sequential engine.  The 'windows' block "
            "compares barrier rounds at K=2 of the adaptive window "
            "protocol (per-pair lookahead matrix + coalesced windows) "
            "against the uncoalesced wall-to-wall baseline "
            "ceil(runtime/L); the reduction is deterministic and gated "
            "in CI.  Speedup "
            "depends on cores_detected: shards timeshare when K exceeds "
            "the core count, so the >=2x-at-K=4 gate applies only to "
            "hosts with >= 4 cores; this record was measured on a "
            f"{measured['cores_detected']}-core host."
        )
        with open(args.write, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.write}")
    if args.check:
        failures = check(measured)
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
