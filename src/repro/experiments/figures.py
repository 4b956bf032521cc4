"""Figures 6–9: every panel's jobs, series, table and CSV rows.

The four figures are four views of two sweeps.  Fig. 6 plots the
communication time against the thread count h, one curve per per-PE
size n/P, on a small (P=16) and a large (P=64) machine; the paper's key
observation is that it is minimal at two to four threads.  Fig. 7 turns
the same curves into overlap efficiency, E = (T_comm,1 − T_comm,h) /
T_comm,1: bitonic sorting overlaps roughly 35 % of its communication,
FFT over 95 %.  Figs. 8 and 9 read one sweep per app at a small and a
large problem on the large machine: the execution-time breakdown
(computation, overhead, communication, switching) and the average
number of switches per processor by type (remote read, iteration
sync, thread sync).

This module is the only code that maps a panel letter to its jobs.
:func:`panel` looks a panel up at a scale, :func:`panel_specs` lists its
jobs, and :func:`panel_entry` builds its ``{"app", "n_pes"[, "npp"],
"series"}`` entry from the run records.  :func:`format_panel` prints an
entry as the paper's table and :func:`csv_rows` flattens it for the
export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..errors import ConfigError
from ..metrics.counters import SwitchKind
from ..metrics.overlap import overlap_series
from ..metrics.report import format_table
from ..runner.jobs import JobSpec, expand_sweep
from .common import ExperimentScale, RunRecord

__all__ = [
    "FIGURES",
    "PANELS",
    "SWITCH_KINDS",
    "CSV_HEADER",
    "Panel",
    "panel",
    "panel_specs",
    "panel_entry",
    "format_panel",
    "csv_rows",
]

#: Figure → (table caption, CSV metric).  Figs. 8 and 9 write one metric
#: per component or switch kind, named with this prefix.
_FIGURES = {
    "fig6": ("communication time [s]", "comm_seconds"),
    "fig7": ("overlap efficiency [%]", "overlap_efficiency"),
    "fig8": ("execution time distribution [%]", "pct_"),
    "fig9": ("switches per processor", "switches_"),
}

FIGURES = tuple(_FIGURES)

#: Panel letter → (app, which end of the scale the panel takes).  In
#: Figs. 6 and 7 the end is the machine, P = ``p_small`` or ``p_large``,
#: with one curve per per-PE size; in Figs. 8 and 9 it is the problem,
#: n/P = ``small_size`` or ``large_size``, at P = ``p_large``.
PANELS = {
    "a": ("sort", "small"),
    "b": ("sort", "large"),
    "c": ("fft", "small"),
    "d": ("fft", "large"),
}

#: Fig. 9's three curves.
SWITCH_KINDS = (SwitchKind.REMOTE_READ, SwitchKind.ITER_SYNC, SwitchKind.THREAD_SYNC)

#: The columns of a Fig. 8 and a Fig. 9 table, in the paper's order.
_COLUMNS = {
    "fig8": ("computation", "overhead", "communication", "switching"),
    "fig9": tuple(kind.value for kind in SWITCH_KINDS),
}

#: The fields of one long-form CSV row.
CSV_HEADER = ["figure", "panel", "app", "n_pes", "npp", "threads", "metric", "value"]


def _by_size(figure: str) -> bool:
    """Whether a figure draws one curve per per-PE size (Figs. 6, 7)."""
    return figure in ("fig6", "fig7")


@dataclass(frozen=True)
class Panel:
    """One lettered panel of one figure at one scale."""

    figure: str
    letter: str
    app: str
    n_pes: int
    #: The per-PE sizes swept; Figs. 8 and 9 sweep one.
    sizes: tuple[int, ...]


def panel(figure: str, letter: str, scale: ExperimentScale) -> Panel:
    """Panel ``letter`` of ``figure`` at ``scale``."""
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; valid: {list(FIGURES)}")
    if letter not in PANELS:
        raise ConfigError(f"{figure} has panels {sorted(PANELS)}, not {letter!r}")
    app, end = PANELS[letter]
    if _by_size(figure):
        n_pes = scale.p_small if end == "small" else scale.p_large
        return Panel(figure, letter, app, n_pes, scale.sizes_for(n_pes))
    npp = scale.small_size if end == "small" else scale.large_size
    return Panel(figure, letter, app, scale.p_large, (npp,))


def panel_specs(p: Panel, threads: Sequence[int]) -> list[JobSpec]:
    """Every job a panel needs: one thread sweep per size, h ≤ n/P."""
    return [spec for npp in p.sizes for spec in expand_sweep(p.app, p.n_pes, npp, threads)]


def _value(figure: str, record: RunRecord):
    """What one run puts on a panel's curve."""
    if figure == "fig8":
        return record.breakdown()
    if figure == "fig9":
        return {kind.value: record.switches(kind) for kind in SWITCH_KINDS}
    return record.comm_seconds


def panel_entry(
    p: Panel, records: Mapping[JobSpec, RunRecord], threads: Sequence[int]
) -> dict:
    """A panel's ``{"app", "n_pes"[, "npp"], "series"}`` from its records.

    Figs. 6 and 7 map each n/P to its curve ``{h: value}``.  Figs. 8 and
    9 have one size, given as ``npp``, and map h to ``{column: value}``.
    """
    curves: dict[int, dict] = {}
    for spec in panel_specs(p, threads):
        curves.setdefault(spec.npp, {})[spec.h] = _value(p.figure, records[spec])
    if p.figure == "fig7":
        curves = {npp: overlap_series(curve) for npp, curve in curves.items()}
    entry = {"app": p.app, "n_pes": p.n_pes}
    if _by_size(p.figure):
        return {**entry, "series": curves}
    [(npp, series)] = curves.items()
    return {**entry, "npp": npp, "series": series}


def format_panel(figure: str, letter: str, entry: dict) -> str:
    """Render a panel entry as the paper prints it: one row per h."""
    series = entry["series"]
    if _by_size(figure):
        # One column per size; a size has no run at h > n/P.
        unit = 100.0 if figure == "fig7" else 1.0
        sizes = sorted(series)
        threads = sorted({h for curve in series.values() for h in curve})
        headers = [f"n/P={npp}" for npp in sizes]
        rows = [
            [h] + [unit * series[npp][h] if h in series[npp] else float("nan") for npp in sizes]
            for h in threads
        ]
        where = ""
    else:
        headers = list(_COLUMNS[figure])
        rows = [[h] + [series[h][column] for column in headers] for h in sorted(series)]
        where = f", n/P={entry['npp']}"
    app = "B-sorting" if entry["app"] == "sort" else "FFT"
    title = f"Fig {figure[3:]}({letter}): {app} P={entry['n_pes']}{where} — {_FIGURES[figure][0]}"
    return format_table(["threads"] + headers, rows, title)


def csv_rows(figure: str, letter: str, entry: dict) -> Iterator[tuple]:
    """A panel entry as long-form rows with the fields of :data:`CSV_HEADER`."""
    head = (figure, letter, entry["app"], entry["n_pes"])
    metric = _FIGURES[figure][1]
    if _by_size(figure):
        for npp, curve in entry["series"].items():
            for h, value in sorted(curve.items()):
                yield (*head, npp, h, metric, value)
    else:
        for h, values in sorted(entry["series"].items()):
            for name, value in sorted(values.items()):
                yield (*head, entry["npp"], h, metric + name, value)
