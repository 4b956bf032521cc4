"""Execution engine: parallel, cached, resumable experiment runs.

Every figure of the paper is a sweep over independent simulations, so
regenerating them is a scheduling problem, not a sequencing one.  This
package supplies the three pieces the figure sweeps need to exploit
that:

* :mod:`~repro.runner.jobs` — content-hashable :class:`JobSpec` values
  and sweep-expansion helpers (the dedup layer),
* :mod:`~repro.runner.cache` — an atomic, version-partitioned on-disk
  result store (the memoisation layer),
* :mod:`~repro.runner.pool` — a process-pool scheduler with crash retry
  (the batching layer),

glued together by :mod:`~repro.runner.sweep`, which the experiments
package, the CLI (``python -m repro sweep``), and the benchmark harness
all call.  A warm cache makes re-exports near-instant; a cold one
scales with core count.
"""

from .cache import ENV_CACHE_DIR, CacheStats, ResultCache, default_cache_root
from .jobs import (
    FIGURES,
    SCHEMA_VERSION,
    JobSpec,
    dedupe,
    expand_figures,
    expand_sweep,
    machine_fingerprint,
    spec_to_dict,
)
from .pool import PoolStatus, run_jobs
from .sweep import (
    RunnerOptions,
    RunStats,
    clear_memo,
    configure,
    get_options,
    reset_options,
    reset_stats,
    run_job,
    run_specs,
    stats,
    sweep_figures,
    sweep_threads,
    using,
)
from .worker import execute_job, trace_artifact_path

__all__ = [
    "SCHEMA_VERSION",
    "FIGURES",
    "JobSpec",
    "machine_fingerprint",
    "dedupe",
    "spec_to_dict",
    "expand_sweep",
    "expand_figures",
    "ENV_CACHE_DIR",
    "CacheStats",
    "ResultCache",
    "default_cache_root",
    "PoolStatus",
    "run_jobs",
    "execute_job",
    "trace_artifact_path",
    "RunnerOptions",
    "RunStats",
    "configure",
    "get_options",
    "reset_options",
    "using",
    "stats",
    "reset_stats",
    "clear_memo",
    "run_job",
    "run_specs",
    "sweep_threads",
    "sweep_figures",
]
