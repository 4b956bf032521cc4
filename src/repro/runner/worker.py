"""Job execution: the code that actually runs one simulation.

This module is what a pool worker process imports — it deliberately
avoids importing the orchestration layers (``pool``, ``sweep``) so a
forked worker touches only the simulator itself.  :func:`execute_job`
is the single place a :class:`~repro.runner.jobs.JobSpec` turns into a
:class:`~repro.experiments.common.RunRecord`; the serial path and the
process pool both call it as ``worker(spec)``.

A job needs no wall-clock budget of its own: a runaway run raises
:class:`~repro.errors.SimulationError` at the machine's ``max_cycles``,
and a stuck one raises :class:`~repro.errors.DeadlockError`.
"""

from __future__ import annotations

import sys
import time

from ..api import get_app, result_ok
from ..errors import ProgramError
from ..metrics.serialize import run_record_from_report
from .jobs import JobSpec

__all__ = ["execute_job"]


def execute_job(spec: JobSpec):
    """Run one simulation and return its ``RunRecord`` (no caching).

    Raises :class:`ProgramError` if the workload produces a wrong
    answer — a cached wrong answer would poison every later figure, so
    verification happens before any caching layer sees the record.
    """
    spec.validate()
    config = spec.config()
    n = spec.n_pes * spec.npp

    started = time.perf_counter()
    result = get_app(spec.app)(
        n_pes=spec.n_pes, n=n, h=spec.h, config=config, seed=spec.seed
    )
    verified = result_ok(result)
    if not verified:
        raise ProgramError(f"{spec.app} run produced a wrong answer at {spec.describe()}")

    record = run_record_from_report(
        spec.app, spec.n_pes, spec.npp, spec.h, result.report, verified
    )
    # Execution cost rides along as a side channel, NOT a RunRecord
    # field: the record stays a pure function of the simulated run
    # (serialisation, equality and cached payloads are unchanged), and
    # the cache layer persists this separately for `cache stats`.
    object.__setattr__(
        record,
        "_exec",
        {
            "wall_seconds": time.perf_counter() - started,
            "max_rss_kb": _max_rss_kb(),
        },
    )
    return record


def _max_rss_kb() -> int | None:
    """Peak RSS of this process, in KiB.

    Only ``RUSAGE_SELF``: a job runs in this process, so the peak of
    any child it has reaped (an earlier pool's workers, a subprocess)
    is not the job's.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)
