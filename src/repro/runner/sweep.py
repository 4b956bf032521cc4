"""Sweep orchestration: memo → disk cache → process pool.

The experiments ask for batches of jobs; this module decides how each
job in a batch is satisfied, cheapest source first:

1. the **per-process memo** (identity-preserving, what the experiments
   package has always had),
2. the **on-disk cache** (:mod:`repro.runner.cache`) keyed by the job's
   content hash, surviving across processes and branches,
3. **execution** — serial in-process when ``jobs == 1``, fanned across
   a process pool otherwise (:mod:`repro.runner.pool`).

Behaviour is controlled by a process-global :class:`RunnerOptions`
(set from CLI flags via :func:`configure`, or scoped with the
:func:`using` context manager), so a caller of :func:`run_specs` gains
parallelism and persistent caching without passing options around.
:func:`stats` reports how many jobs each source satisfied; the CLI
prints it so a warm re-export visibly executes **zero** simulations.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..errors import ConfigError
from .cache import ResultCache
from .jobs import JobSpec, dedupe
from .pool import PoolStatus, run_jobs
from .worker import execute_job

__all__ = [
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
]


@dataclass(frozen=True)
class RunnerOptions:
    """How sweeps execute: parallelism, cache location, progress, traces."""

    #: Worker processes; 1 = classic serial in-process execution.
    jobs: int = 1
    #: Cache root override (None → ``REPRO_CACHE_DIR`` → ``~/.cache/repro``).
    cache_dir: str | None = None
    #: Disk layer on/off (the memo is always on).
    use_cache: bool = True
    #: Called with a :class:`~repro.runner.pool.PoolStatus` after every
    #: completed/cached job.
    progress: Callable[[PoolStatus], None] | None = None
    #: When set, every *executed* job also writes a Perfetto trace
    #: under this directory (cache hits produce no artifact; the cache
    #: key is unaffected).
    trace_dir: str | None = None

    def validate(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


_options = RunnerOptions()


def configure(**overrides) -> RunnerOptions:
    """Replace selected fields of the process-global options."""
    global _options
    options = replace(_options, **overrides)
    options.validate()
    _options = options
    return _options


def get_options() -> RunnerOptions:
    return _options


def reset_options() -> RunnerOptions:
    """Back to defaults (serial, default cache root, cache on)."""
    global _options
    _options = RunnerOptions()
    return _options


@contextlib.contextmanager
def using(**overrides):
    """Scoped options: ``with using(jobs=4): run_specs(specs)``."""
    global _options
    saved = _options
    try:
        yield configure(**overrides)
    finally:
        _options = saved


@dataclass
class RunStats:
    """Where each job of the current accounting window came from."""

    executed: int = 0
    disk_hits: int = 0
    memo_hits: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.disk_hits + self.memo_hits

    @property
    def cached(self) -> int:
        return self.disk_hits + self.memo_hits

    def describe(self) -> str:
        return (
            f"{self.total} jobs: {self.executed} executed, "
            f"{self.disk_hits} disk hits, {self.memo_hits} memoised"
        )


_stats = RunStats()

#: The per-process memo.  Keyed by JobSpec, so it doubles as the
#: dedup table for every orchestration path.
_memo: dict[JobSpec, object] = {}


def stats() -> RunStats:
    """A snapshot of the counters since the last :func:`reset_stats`."""
    return replace(_stats)


def reset_stats() -> RunStats:
    global _stats
    _stats = RunStats()
    return _stats


def clear_memo() -> None:
    _memo.clear()


def _cache_for(options: RunnerOptions) -> ResultCache | None:
    return ResultCache(options.cache_dir) if options.use_cache else None


def _write_back(cache: ResultCache | None, spec: JobSpec, record) -> None:
    """Ensure a memo-satisfied job also exists on disk.

    Results computed before the cache was configured (or under another
    cache root) would otherwise never persist, leaving later processes
    to recompute them.
    """
    if cache is not None and spec not in cache:
        cache.put(spec, record)


def run_job(spec: JobSpec, *, options: RunnerOptions | None = None):
    """Satisfy one job: memo, then disk, then execute in-process."""
    return run_specs([spec], options=options)[spec]


def run_specs(
    specs: Sequence[JobSpec], *, options: RunnerOptions | None = None
) -> dict[JobSpec, object]:
    """Satisfy a batch of jobs, fanning cache misses across the pool.

    Returns ``{spec: RunRecord}`` covering every *distinct* spec in
    ``specs``.  With ``jobs == 1`` the misses run serially in-process,
    which keeps single-job behaviour (and memo identity semantics)
    exactly as before the engine existed.
    """
    options = options or _options
    ordered = dedupe(specs)
    results: dict[JobSpec, object] = {}
    misses: list[JobSpec] = []

    cache = _cache_for(options)
    for spec in ordered:
        hit = _memo.get(spec)
        if hit is not None:
            _stats.memo_hits += 1
            _write_back(cache, spec, hit)
            results[spec] = hit
            continue
        if cache is not None:
            record = cache.get(spec)
            if record is not None:
                _stats.disk_hits += 1
                _memo[spec] = record
                results[spec] = record
                continue
        misses.append(spec)

    if misses:
        status = PoolStatus(total=len(ordered), workers=options.jobs, cached=len(results))
        if options.progress is not None:
            options.progress(status)
        executed = run_jobs(
            misses,
            jobs=options.jobs,
            worker=functools.partial(execute_job, trace_dir=options.trace_dir),
            progress=options.progress,
            status=status,
        )
        for spec in misses:
            record = executed[spec]
            _stats.executed += 1
            _memo[spec] = record
            if cache is not None:
                cache.put(spec, record)
            results[spec] = record
    return {spec: results[spec] for spec in ordered}
