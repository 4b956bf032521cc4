"""Experiment drivers: the paper's evaluation, regenerated and judged.

* :mod:`~repro.experiments.figures` — every Fig. 6–9 panel: its jobs,
  its series, its table and its CSV rows (communication time, overlap
  efficiency, execution-time breakdown and switch counts by type).
* :mod:`~repro.experiments.microbench` — the quoted point measurements
  (remote-read latency ≈ 1 µs, packet-generation overhead).
* :mod:`~repro.experiments.shapes` — the qualitative shape checks that
  define reproduction success.
* :mod:`~repro.experiments.ablations` — ablations A1–A7.
* :mod:`~repro.experiments.results` — every verdict and the
  ``RESULTS_<scale>.json`` file ``python -m repro export`` writes.

``figures``, ``ablations`` and ``results`` are imported on demand, not
from this package.  The figure sweeps and the whole-workload ablations
run through the :class:`repro.runner.Runner` their caller passes in
(memoised per runner, persisted to an on-disk result cache when it has
one, parallel across a process pool with ``jobs > 1``), and the figures
share :mod:`~repro.experiments.common`'s ``REPRO_SCALE`` size ladder
(the paper's 128K–8M element runs are scaled down; see DESIGN.md §4).
"""

from .common import THREAD_SWEEP, ExperimentScale, RunRecord, default_scale
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
    "default_scale",
    "measure_remote_read_latency",
    "measure_overhead_null_loop",
    "check_fig6_minimum",
    "check_efficiency_bands",
    "check_fig8_components",
    "check_fig9_orderings",
]
