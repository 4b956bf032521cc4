"""Plain-text tables for experiment output.

The benchmark harness prints every figure's series as an aligned text
table; this module is the single formatting path so tests can assert on
structure without caring about spacing.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table", "format_cohort", "format_series"]


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned text table with a header rule."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_cohort(cohort: dict) -> str:
    """Render ``MachineReport.cohort`` (cohort-compiler diagnostics).

    One occupancy line: what fraction of guest threads ran on a compiled
    tier, and how many threads went through each tier.
    """
    tiers = []
    for label, key in (
        ("emc-codegen", "emc_codegen_threads"),
        ("emc-interp", "emc_interp_threads"),
        ("gen-interp", "gen_interpreted_threads"),
    ):
        if cohort.get(key):
            tiers.append(f"{label} {cohort[key]}")
    return f"cohorts: occupancy {cohort['occupancy']:.2f}  " + (
        ", ".join(tiers) if tiers else "no guest threads"
    )


def format_series(name: str, series: dict[int, float], unit: str = "") -> str:
    """Render one x → y series (e.g. threads → communication seconds)."""
    rows = [(x, y) for x, y in sorted(series.items())]
    header_y = f"{name}{f' [{unit}]' if unit else ''}"
    return format_table(["threads", header_y], rows)

