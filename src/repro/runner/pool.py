"""Process-pool scheduler: fan independent jobs across cores.

Every job is an independent simulation, so the scheduling problem is
embarrassingly parallel: submit all jobs to a
``concurrent.futures.ProcessPoolExecutor`` sized by ``--jobs``, collect
results as they complete, and keep the caller informed through a
progress callback.

Failure policy, in order of severity:

* **Workload errors** (wrong answer, deadlock, bad spec) are
  deterministic — they propagate immediately; retrying would only burn
  cycles reproducing the same failure.
* **Worker crashes** (a killed process breaks the whole pool, failing
  every in-flight future) get **one retry** in a fresh pool — the jobs
  themselves are deterministic, so a second crash means the job, not
  the machinery, is at fault and the run fails loudly.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import SimulationError
from .jobs import JobSpec
from .worker import execute_job

__all__ = ["PoolStatus", "run_jobs"]


@dataclass
class PoolStatus:
    """Live counters handed to the progress callback after every event.

    ``total`` covers the whole request including jobs satisfied by a
    cache layer (the sweep orchestrator seeds ``cached``); the pool
    itself advances ``completed``, ``failed`` and ``retried``.
    """

    total: int
    workers: int = 1
    cached: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0

    @property
    def outstanding(self) -> int:
        return max(0, self.total - self.cached - self.completed - self.failed)

    @property
    def running(self) -> int:
        """How many jobs are plausibly executing right now."""
        return min(self.workers, self.outstanding)

    def describe(self) -> str:
        done = self.cached + self.completed
        msg = f"{done}/{self.total} jobs ({self.cached} cached, {self.running} running)"
        if self.retried:
            msg += f", {self.retried} retried"
        return msg


ProgressCallback = Callable[[PoolStatus], None]


def _notify(progress: ProgressCallback | None, status: PoolStatus) -> None:
    if progress is not None:
        progress(status)


def _run_serial(
    specs: Sequence[JobSpec],
    worker,
    progress: ProgressCallback | None,
    status: PoolStatus,
) -> dict[JobSpec, object]:
    results: dict[JobSpec, object] = {}
    for spec in specs:
        results[spec] = worker(spec)
        status.completed += 1
        _notify(progress, status)
    return results


def _run_pass(
    specs: Sequence[JobSpec],
    jobs: int,
    worker,
    progress: ProgressCallback | None,
    status: PoolStatus,
) -> tuple[dict[JobSpec, object], list[JobSpec]]:
    """One executor pass; returns (results, crashed-spec list).

    Only pool breakage lands in the crash list — workload exceptions
    cancel what they can and propagate.
    """
    results: dict[JobSpec, object] = {}
    crashed: list[JobSpec] = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        futures = {pool.submit(worker, spec): spec for spec in specs}
        for future in as_completed(futures):
            spec = futures[future]
            try:
                results[spec] = future.result()
            except BrokenProcessPool:
                crashed.append(spec)
                continue
            except Exception:
                # Deterministic workload failure: stop the presses.
                for pending in futures:
                    pending.cancel()
                raise
            status.completed += 1
            _notify(progress, status)
    return results, crashed


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    jobs: int,
    worker=execute_job,
    progress: ProgressCallback | None = None,
    status: PoolStatus | None = None,
) -> dict[JobSpec, object]:
    """Execute ``specs`` and return ``{spec: RunRecord}``.

    ``jobs=1`` runs serially in-process (no pool, no pickling —
    byte-for-byte the classic sequential path).  ``worker`` is
    injectable for tests and benchmarks; it must be a picklable callable
    taking ``(spec)``.
    """
    if jobs < 1:
        raise SimulationError(f"--jobs must be >= 1, got {jobs}")
    if status is None:
        status = PoolStatus(total=len(specs), workers=jobs)
    else:
        status.workers = jobs
    if not specs:
        return {}

    if jobs == 1 or len(specs) == 1:
        return _run_serial(specs, worker, progress, status)

    results, crashed = _run_pass(specs, jobs, worker, progress, status)
    if crashed:
        # A broken pool fails every in-flight future, including jobs
        # that never ran; give each exactly one more chance in a fresh
        # pool before declaring the run dead.
        status.retried += len(crashed)
        _notify(progress, status)
        retried, crashed_again = _run_pass(crashed, jobs, worker, progress, status)
        if crashed_again:
            labels = ", ".join(spec.describe() for spec in crashed_again[:4])
            raise SimulationError(
                f"worker crashed twice for {len(crashed_again)} job(s): {labels}"
            )
        results.update(retried)
    return results
