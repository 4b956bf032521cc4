"""Experiment drivers: one module per figure of the paper's evaluation.

* :mod:`~repro.experiments.fig6` — communication time vs. thread count.
* :mod:`~repro.experiments.fig7` — overlap efficiency.
* :mod:`~repro.experiments.fig8` — execution-time breakdown.
* :mod:`~repro.experiments.fig9` — switch counts by type.
* :mod:`~repro.experiments.microbench` — the quoted point measurements
  (remote-read latency ≈ 1 µs, packet-generation overhead).
* :mod:`~repro.experiments.shapes` — the qualitative shape checks that
  define reproduction success.
* :mod:`~repro.experiments.ablations` — ablations A1–A7.
* :mod:`~repro.experiments.results` — every verdict and the
  ``RESULTS_<scale>.json`` file ``python -m repro export`` writes
  (imported on demand, not from this package).

All drivers execute through the :mod:`repro.runner` engine (memoised
per process, persisted to an on-disk result cache, parallel across a
process pool when configured with ``jobs > 1``) and share
:mod:`~repro.experiments.common`'s ``REPRO_SCALE`` size ladder (the
paper's 128K–8M element runs are scaled down; see DESIGN.md §4).
"""

from .common import (
    THREAD_SWEEP,
    ExperimentScale,
    RunRecord,
    clear_cache,
    default_scale,
    run_app,
    sweep_threads,
)
from .export import export_all
from .fig6 import fig6_panel, fig6_series, format_fig6
from .fig7 import fig7_panel, format_fig7
from .fig8 import fig8_panel, format_fig8
from .fig9 import fig9_panel, format_fig9
from .microbench import measure_overhead_null_loop, measure_remote_read_latency
from .shapes import (
    check_efficiency_bands,
    check_fig6_minimum,
    check_fig8_components,
    check_fig9_orderings,
)

__all__ = [
    "THREAD_SWEEP",
    "ExperimentScale",
    "RunRecord",
    "clear_cache",
    "default_scale",
    "run_app",
    "sweep_threads",
    "export_all",
    "fig6_series",
    "fig6_panel",
    "format_fig6",
    "fig7_panel",
    "format_fig7",
    "fig8_panel",
    "format_fig8",
    "fig9_panel",
    "format_fig9",
    "measure_remote_read_latency",
    "measure_overhead_null_loop",
    "check_fig6_minimum",
    "check_efficiency_bands",
    "check_fig8_components",
    "check_fig9_orderings",
]
