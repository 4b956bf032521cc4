"""Sweep orchestration: memo → disk cache → process pool.

The experiments hand a :class:`Runner` batches of jobs; it satisfies
each job in a batch from the cheapest source first:

1. the runner's own **memo** (identity-preserving: a job asked for
   again returns the same record),
2. the **on-disk cache** (:mod:`repro.runner.cache`) keyed by the job's
   content hash, surviving across processes and branches,
3. **execution** — serial in-process when ``jobs == 1``, fanned across
   a process pool otherwise (:mod:`repro.runner.pool`).

A runner is a value its caller builds and passes on: the CLI builds one
per command from ``--jobs``, ``--cache-dir`` and ``--no-cache``, and
the export hands that one to every figure batch and ablation, so its
memo absorbs the jobs they share.  :attr:`Runner.stats` counts how many
jobs each source satisfied; the CLI prints it so a warm re-export
visibly executes **zero** simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ConfigError
from .cache import ResultCache
from .jobs import JobSpec, dedupe
from .pool import PoolStatus, run_jobs

__all__ = ["Runner", "RunStats"]


@dataclass
class RunStats:
    """Where each job a runner was asked for came from."""

    executed: int = 0
    disk_hits: int = 0
    memo_hits: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.disk_hits + self.memo_hits

    def describe(self) -> str:
        return (
            f"{self.total} jobs: {self.executed} executed, "
            f"{self.disk_hits} disk hits, {self.memo_hits} memoised"
        )


@dataclass(eq=False)
class Runner:
    """Satisfies batches of jobs: memo, then disk cache, then execution."""

    #: Worker processes; 1 = serial in-process execution.
    jobs: int = 1
    #: The disk layer; None runs with the memo only.
    cache: ResultCache | None = None
    #: Called with a :class:`~repro.runner.pool.PoolStatus` before a
    #: batch executes and after every job it completes.
    progress: Callable[[PoolStatus], None] | None = None
    #: Counts one lookup per distinct job of each batch.
    stats: RunStats = field(default_factory=RunStats, init=False)
    _memo: dict[JobSpec, object] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")

    def run(self, specs: Sequence[JobSpec]) -> dict[JobSpec, object]:
        """``{spec: RunRecord}`` for every distinct spec, in first-seen
        order, executing only the jobs neither layer holds."""
        ordered = dedupe(specs)
        misses: list[JobSpec] = []
        for spec in ordered:
            if spec in self._memo:
                self.stats.memo_hits += 1
                continue
            record = None if self.cache is None else self.cache.get(spec)
            if record is None:
                misses.append(spec)
            else:
                self.stats.disk_hits += 1
                self._memo[spec] = record

        if misses:
            status = PoolStatus(
                total=len(ordered), workers=self.jobs, cached=len(ordered) - len(misses)
            )
            if self.progress is not None:
                self.progress(status)
            executed = run_jobs(misses, jobs=self.jobs, progress=self.progress, status=status)
            for spec in misses:
                self._memo[spec] = executed[spec]
                if self.cache is not None:
                    self.cache.put(spec, executed[spec])
            self.stats.executed += len(misses)
        return {spec: self._memo[spec] for spec in ordered}
