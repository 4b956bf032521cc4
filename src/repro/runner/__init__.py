"""Execution engine: parallel, cached, resumable experiment runs.

Every figure of the paper is a sweep over independent simulations, so
regenerating them is a scheduling problem, not a sequencing one.  This
package supplies the three pieces a batch of jobs needs to exploit
that:

* :mod:`~repro.runner.jobs` — content-hashable :class:`JobSpec` values,
  one thread sweep's expansion and the dedup helper,
* :mod:`~repro.runner.cache` — an atomic, version-partitioned on-disk
  result store (the memoisation layer),
* :mod:`~repro.runner.pool` — a process-pool scheduler with crash retry
  (the batching layer),

glued together by :mod:`~repro.runner.sweep`'s :class:`Runner`, a value
the CLI builds from its flags and passes to the experiments.  The
runner knows no figure: :mod:`repro.experiments.figures` lists the jobs
of each panel.  A warm cache serves every figure and runner-backed
ablation of a re-export; a cold one scales with core count.
"""

from .cache import ENV_CACHE_DIR, CacheStats, ResultCache, default_cache_root
from .jobs import (
    SCHEMA_VERSION,
    JobSpec,
    dedupe,
    expand_sweep,
    machine_fingerprint,
    spec_to_dict,
)
from .pool import PoolStatus, run_jobs
from .sweep import Runner, RunStats
from .worker import execute_job

__all__ = [
    "SCHEMA_VERSION",
    "JobSpec",
    "machine_fingerprint",
    "dedupe",
    "spec_to_dict",
    "expand_sweep",
    "ENV_CACHE_DIR",
    "CacheStats",
    "ResultCache",
    "default_cache_root",
    "PoolStatus",
    "run_jobs",
    "execute_job",
    "Runner",
    "RunStats",
]
