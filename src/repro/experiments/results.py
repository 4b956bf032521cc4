"""The evaluation's verdicts and its results file, ``RESULTS_<scale>.json``.

A verdict is one named check — ``fig6.a``, ``A3.network_ratio`` — and
its list of problems; an empty list is a pass, the convention of
:mod:`~repro.experiments.shapes`.  :data:`CHECKS` names every verdict in
report order, so the ids are known before anything runs.

:func:`export_results` is ``python -m repro export``: it writes the
figure CSVs (:func:`~repro.experiments.export.export_all`), gathers the
rest of the evidence — the µ1/µ2 probes and ablations A1–A7 — judges
every verdict, and writes the series, tables and verdicts with the host,
the wall time and the default machine's fingerprint next to the CSVs.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import platform
import time
from typing import Callable

from ..config import MachineConfig
from ..runner.jobs import machine_fingerprint
from .ablations import run_ablations
from .common import THREAD_SWEEP, ExperimentScale
from .export import export_all
from .fig6 import PANELS as FIG6_PANELS
from .fig6 import fig6_panel
from .fig7 import fig7_panel
from .fig8 import PANELS as FIG8_PANELS
from .fig8 import fig8_panel
from .fig9 import fig9_panel
from .microbench import measure_overhead_null_loop, measure_remote_read_latency
from .shapes import (
    check_efficiency_bands,
    check_fig6_minimum,
    check_fig8_components,
    check_fig9_orderings,
)

__all__ = ["CHECKS", "evaluate", "export_results"]

Check = Callable[[dict], list[str]]


# ----------------------------------------------------------------------
# Evidence
# ----------------------------------------------------------------------
def _figures(scale: ExperimentScale) -> dict:
    """Every Fig. 6–9 panel on :data:`THREAD_SWEEP`, with its shape."""
    figures: dict = {}
    for fig, panel_fn in (("fig6", fig6_panel), ("fig7", fig7_panel)):
        figures[fig] = {
            panel: {
                "app": app,
                "n_pes": getattr(scale, which),
                "series": panel_fn(panel, scale, THREAD_SWEEP),
            }
            for panel, (app, which) in sorted(FIG6_PANELS.items())
        }
    for fig, panel_fn in (("fig8", fig8_panel), ("fig9", fig9_panel)):
        figures[fig] = {
            panel: {
                "app": app,
                "n_pes": scale.p_large,
                "npp": scale.small_size if role == "small" else scale.large_size,
                "series": panel_fn(panel, scale, THREAD_SWEEP),
            }
            for panel, (app, role) in sorted(FIG8_PANELS.items())
        }
    return figures


def _probes() -> dict:
    """µ1 on the 64-PE machine and µ2's null loop, unrounded."""
    latency = measure_remote_read_latency(n_pes=64, reads=256)
    overhead = measure_overhead_null_loop(n_pes=16, writes=2048)
    return {
        "mu1": {
            "title": "u1: remote read latency on the 64-PE machine (paper: ~1 us)",
            "rows": [
                {
                    "target": p.target,
                    "hops": p.hops,
                    "roundtrip_cycles": p.roundtrip_cycles,
                    "latency_us": p.microseconds,
                }
                for p in latency
            ],
        },
        "mu2": {
            "title": "u2: null-loop packet generation overhead (EMC-Y: 1 clock)",
            "rows": [
                {
                    "writes": overhead.writes,
                    "overhead_cycles": overhead.overhead_cycles,
                    "cycles_per_packet": overhead.cycles_per_packet,
                }
            ],
        },
    }


# ----------------------------------------------------------------------
# Checks: each takes the evidence and returns its problems
# ----------------------------------------------------------------------
def _fig6_sort(ev: dict, panel: str) -> list[str]:
    """Every sorting curve bottoms at few threads and worsens toward 16."""
    series = ev["figures"]["fig6"][panel]["series"]
    return [f"n/P={npp}: {p}" for npp, curve in series.items() for p in check_fig6_minimum(curve)]


def _fig6_fft_valley(ev: dict, panel: str) -> list[str]:
    """A deep 1 → 2 thread drop on every FFT curve.

    The valley deepens with problem size (more butterflies to mask with,
    the paper's own Fig. 6(d) size effect), and the 64-PE machine's
    barrier and fabric floor dominates its tiniest problems entirely.
    """
    fig = ev["figures"]["fig6"][panel]
    problems = []
    for npp, curve in fig["series"].items():
        depth = 0.35
        if npp <= 16:
            depth = 0.8 if fig["n_pes"] >= 64 else 0.5
        if not curve[2] < depth * curve[1]:
            problems.append(
                f"n/P={npp}: shallow FFT valley (h=2 {curve[2]:.3g} s, "
                f"not below {depth} x h=1 {curve[1]:.3g} s)"
            )
    return problems


def _fig6_fft_argmin(ev: dict, panel: str) -> list[str]:
    """Every FFT curve bottoms at two threads or more."""
    series = ev["figures"]["fig6"][panel]["series"]
    problems = []
    for npp, curve in series.items():
        best = min(curve, key=curve.__getitem__)
        if best < 2:
            problems.append(f"n/P={npp}: minimum at h={best}, expected h >= 2")
    return problems


def _fig7_largest(ev: dict, panel: str) -> tuple[int, dict[int, float]]:
    """A Fig. 7 panel's curve at its largest size."""
    series = ev["figures"]["fig7"][panel]["series"]
    npp = max(series)
    return npp, series[npp]


def _small_machine(panel: str) -> bool:
    return FIG6_PANELS[panel][1] == "p_small"


def _fig7_bands(ev: dict, sort_panel: str, fft_panel: str) -> list[str]:
    """Sorting and FFT efficiency bands at the largest size.

    The FFT floor is 0.90 on the small machine and 0.80 on the large
    one, where the detailed Omega fabric is throughput-bound under the
    all-pairs traffic (EXPERIMENTS.md).
    """
    npp, sort_eff = _fig7_largest(ev, sort_panel)
    _, fft_eff = _fig7_largest(ev, fft_panel)
    floor = 0.90 if _small_machine(sort_panel) else 0.80
    return [f"n/P={npp}: {p}" for p in check_efficiency_bands(sort_eff, fft_eff, fft_floor=floor)]


def _fig7_headline(ev: dict, sort_panel: str, fft_panel: str) -> list[str]:
    """The paper's FFT headline, > 95 % with 2–4 threads.

    The small machine must reach it; on the large one a few percent of
    reply latency stays unmaskable, so the bar there is 85 %.
    """
    npp, fft_eff = _fig7_largest(ev, fft_panel)
    headline = 0.95 if _small_machine(sort_panel) else 0.85
    best = max(fft_eff[h] for h in (2, 4))
    if best > headline:
        return []
    return [f"n/P={npp}: FFT best of h=2,4 is {best:.3f}, not above {headline}"]


def _fig8(ev: dict, panel: str) -> list[str]:
    fig = ev["figures"]["fig8"][panel]
    return check_fig8_components(fig["series"], fig["app"])


def _fig9(ev: dict, panel: str) -> list[str]:
    fig = ev["figures"]["fig9"][panel]
    small = FIG8_PANELS[panel][1] == "small"
    return check_fig9_orderings(fig["series"], fig["app"], small_problem=small)


def _each_row(section: str, name: str, ok: Callable[[dict], bool], problem: str) -> Check:
    """A check that every row of one table satisfies ``ok``.

    ``problem`` is formatted with each failing row's fields.
    """

    def check(ev: dict) -> list[str]:
        return [problem.format(**row) for row in ev[section][name]["rows"] if not ok(row)]

    return check


def _a6_gap_widens(ev: dict) -> list[str]:
    """log² P merge iterations against P rounds: the gap grows with P."""
    slowdowns = [r["slowdown"] for r in ev["ablations"]["A6"]["rows"]]
    if slowdowns[-1] > slowdowns[0]:
        return []
    return [f"slowdown does not grow with P: {slowdowns}"]


def _a7_latency_grows(ev: dict) -> list[str]:
    latencies = [r["simulated_cycles"] for r in ev["ablations"]["A7"]["rows"]]
    if latencies == sorted(latencies):
        return []
    return [f"latency does not grow with offered load: {latencies}"]


def _checks() -> dict[str, Check]:
    checks: dict[str, Check] = {}
    for panel, (app, _) in sorted(FIG6_PANELS.items()):
        if app == "sort":
            checks[f"fig6.{panel}"] = functools.partial(_fig6_sort, panel=panel)
        else:
            checks[f"fig6.{panel}.valley"] = functools.partial(_fig6_fft_valley, panel=panel)
            checks[f"fig6.{panel}.argmin"] = functools.partial(_fig6_fft_argmin, panel=panel)
    for sort_panel, fft_panel in (("a", "c"), ("b", "d")):
        pair = dict(sort_panel=sort_panel, fft_panel=fft_panel)
        checks[f"fig7.{sort_panel}{fft_panel}.bands"] = functools.partial(_fig7_bands, **pair)
        checks[f"fig7.{sort_panel}{fft_panel}.headline"] = functools.partial(
            _fig7_headline, **pair
        )
    for fig, check in (("fig8", _fig8), ("fig9", _fig9)):
        for panel in sorted(FIG8_PANELS):
            checks[f"{fig}.{panel}"] = functools.partial(check, panel=panel)
    checks.update({
        "mu1.roundtrip_cycles": _each_row(
            "probes", "mu1", lambda r: 8 <= r["roundtrip_cycles"] <= 40,
            "target PE {target}: {roundtrip_cycles:.1f} cycles, outside 8..40"),
        # The paper's "approximately 1 µs" at 20 MHz.
        "mu1.latency_us": _each_row(
            "probes", "mu1", lambda r: 0.3 <= r["latency_us"] <= 2.0,
            "target PE {target}: {latency_us:.3f} us, outside 0.3..2.0"),
        # One clock per packet, within 1e-6.
        "mu2.cycles_per_packet": _each_row(
            "probes", "mu2", lambda r: abs(r["cycles_per_packet"] - 1.0) <= 1e-6,
            "{cycles_per_packet} cycles/packet, expected 1.0"),
        "A1.em4_slower": _each_row(
            "ablations", "A1", lambda r: r["slowdown"] > 1.0,
            "{app}: EM-4 mode slowdown {slowdown}, not above 1"),
        # E(1) is zero by definition, in the model and in the simulator.
        "A2.one_thread_zero": _each_row(
            "ablations", "A2",
            lambda r: r["threads"] != 1 or (r["model_e"] == 0.0 and r["simulated_e"] == 0.0),
            "{app}: E(1) model {model_e}, simulated {simulated_e}"),
        # In saturation both predict near-total masking of latency.
        "A2.saturation_masking": _each_row(
            "ablations", "A2",
            lambda r: r["region"] != "saturation" or r["threads"] == 1 or r["simulated_e"] > 0.8,
            "{app} h={threads}: simulated E {simulated_e} in saturation, not above 0.8"),
        "A3.network_ratio": _each_row(
            "ablations", "A3", lambda r: 0.9 < r["ratio"] < 1.1,
            "{app}: analytic/detailed runtime {ratio}, outside (0.9, 1.1)"),
        "A4.priority_ratio": _each_row(
            "ablations", "A4", lambda r: 0.8 < r["runtime_ratio"] < 1.2,
            "{app}: priority/FIFO runtime {runtime_ratio}, outside (0.8, 1.2)"),
        "A5.switch_collapse": _each_row(
            "ablations", "A5", lambda r: r["block_switches"] < r["element_switches"] / 4,
            "h={threads}: {block_switches} block vs {element_switches} element switches"),
        "A5.speedup": _each_row(
            "ablations", "A5", lambda r: r["speedup"] > 1.0,
            "h={threads}: block-read speedup {speedup}, not above 1"),
        "A6.bitonic_wins": _each_row(
            "ablations", "A6", lambda r: r["slowdown"] > 1.0,
            "P={n_pes}: transposition slowdown {slowdown}, not above 1"),
        "A6.gap_widens": _a6_gap_widens,
        "A7.model_ratio": _each_row(
            "ablations", "A7", lambda r: 0.8 < r["ratio"] < 1.25,
            "load {load}: simulated/model latency {ratio}, outside (0.8, 1.25)"),
        "A7.latency_grows": _a7_latency_grows,
    })
    return checks


#: Every verdict, id → check, in report order.
CHECKS: dict[str, Check] = _checks()


# ----------------------------------------------------------------------
# Evaluation and the results file
# ----------------------------------------------------------------------
def evaluate(scale: ExperimentScale) -> tuple[dict, dict[str, list[str]]]:
    """Gather the evidence at ``scale`` and judge it: (evidence, verdicts)."""
    evidence = {
        "scale": scale.name,
        "threads": list(THREAD_SWEEP),
        "figures": _figures(scale),
        "probes": _probes(),
        "ablations": run_ablations(),
    }
    return evidence, {vid: check(evidence) for vid, check in CHECKS.items()}


def export_results(
    outdir: str | pathlib.Path, scale: ExperimentScale
) -> tuple[list[pathlib.Path], dict[str, list[str]]]:
    """Write the figure CSVs and ``RESULTS_<scale>.json`` under ``outdir``.

    Returns the written paths (the results file last) and the verdicts.
    A failing verdict is a result, not an error.
    """
    start = time.perf_counter()
    written = export_all(outdir, scale)
    evidence, verdicts = evaluate(scale)
    payload = {
        **evidence,
        "verdicts": [
            {"id": vid, "passed": not problems, "problems": problems}
            for vid, problems in verdicts.items()
        ],
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "wall_s": round(time.perf_counter() - start, 1),
        "machine_fingerprint": machine_fingerprint(MachineConfig()),
    }
    path = pathlib.Path(outdir) / f"RESULTS_{scale.name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    written.append(path)
    return written, verdicts
