"""Job execution: the code that actually runs one simulation.

This module is what a pool worker process imports — it deliberately
avoids importing the orchestration layers (``pool``, ``sweep``) so a
forked worker touches only the simulator itself.  :func:`execute_job`
is the single place a :class:`~repro.runner.jobs.JobSpec` turns into a
:class:`~repro.experiments.common.RunRecord`; the serial path, the
process pool, and the benchmark harness all funnel through it.

A per-job wall-clock budget is enforced *inside* the worker
(:func:`deadline`), which keeps the scheduler simple: a job that
exceeds its budget raises :class:`JobTimeout` in its own process (or
thread) and surfaces as an ordinary failed future, not a wedged pool.
On the main thread of a POSIX process the mechanism is ``SIGALRM``;
off the main thread — the serial path runs the worker in the caller's
thread, which may be any thread — a watchdog thread injects the
timeout asynchronously, so the budget is enforced wherever the job
runs.
"""

from __future__ import annotations

import contextlib
import signal
import sys
import threading
import time

from ..api import call_with_plan, get_app, result_ok
from ..errors import ProgramError, SimulationError
from ..metrics.serialize import run_record_from_report
from .jobs import JobSpec

__all__ = [
    "JobTimeout",
    "deadline",
    "execute_job",
    "run_job_worker",
    "trace_artifact_path",
]


class JobTimeout(SimulationError):
    """A job exceeded its per-job wall-clock budget."""


def _async_raise(ident: int, exc_type) -> bool:
    """Inject ``exc_type`` into the thread ``ident`` (CPython only).

    Delivery happens at the target thread's next bytecode boundary —
    exactly right for the pure-Python simulator loop.  ``exc_type=None``
    cancels a pending, not-yet-delivered injection.  Returns whether the
    call affected exactly one thread; on anything other than CPython
    (no ``ctypes.pythonapi``) it returns False and the caller degrades
    to unenforced budgets, the historical non-main-thread behaviour.
    """
    try:
        import ctypes

        api = ctypes.pythonapi
    except (ImportError, AttributeError):  # pragma: no cover - non-CPython
        return False
    exc = ctypes.py_object(exc_type) if exc_type is not None else None
    touched = api.PyThreadState_SetAsyncExc(ctypes.c_ulong(ident), exc)
    if touched > 1:  # pragma: no cover - defensive: bad ident matched many
        api.PyThreadState_SetAsyncExc(ctypes.c_ulong(ident), None)
        return False
    return touched == 1


@contextlib.contextmanager
def _watchdog_deadline(seconds: float):
    """Non-main-thread budget: a watchdog injects :class:`JobTimeout`.

    Once the watchdog fires the outcome is deterministically a timeout:
    if the block won the race and finished before the injected exception
    was delivered, the pending injection is cancelled and the timeout is
    raised synchronously instead — a fired deadline never leaks an
    asynchronous exception into unrelated later code.
    """
    ident = threading.get_ident()
    finished = threading.Event()
    fired = threading.Event()

    def _arm() -> None:
        if not finished.wait(seconds):
            fired.set()
            _async_raise(ident, JobTimeout)

    watchdog = threading.Thread(target=_arm, name="repro-job-watchdog", daemon=True)
    watchdog.start()
    try:
        yield
    finally:
        finished.set()
        watchdog.join()
        if fired.is_set() and sys.exc_info()[0] is None:
            _async_raise(ident, None)
            raise JobTimeout(f"job exceeded its {seconds:.1f}s budget")


@contextlib.contextmanager
def deadline(seconds: float | None):
    """Raise :class:`JobTimeout` if the block runs longer than ``seconds``.

    On the main thread of a POSIX process (exactly what a pool worker
    is) the mechanism is ``SIGALRM``, ceiled to whole seconds.  On any
    other thread — a runner call made off the main thread runs its
    serial jobs there — a watchdog thread enforces the budget at float
    precision via an injected exception.
    With ``seconds=None``, or where neither mechanism exists, it is a
    no-op so the engine degrades gracefully rather than failing.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    if not (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        with _watchdog_deadline(seconds):
            yield
        return

    def _expired(_signum, _frame):
        raise JobTimeout(f"job exceeded its {seconds:.0f}s budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    # ceil to a whole second: signal.alarm(0) would disarm, not expire.
    signal.alarm(max(1, int(seconds + 0.999)))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def trace_artifact_path(trace_dir: str, spec: JobSpec) -> str:
    """Where one job's Perfetto trace lands under ``trace_dir``.

    Named by workload parameters plus a content-hash prefix, so sweeps
    with overlapping shapes but different machine configs cannot
    clobber each other's artifacts.
    """
    import os

    name = (
        f"{spec.app}_P{spec.n_pes}_n{spec.npp}_h{spec.h}"
        f"_{spec.key()[:8]}.perfetto.json"
    )
    return os.path.join(trace_dir, name)


def execute_job(spec: JobSpec, *, trace_dir: str | None = None):
    """Run one simulation and return its ``RunRecord`` (no caching).

    Raises :class:`ProgramError` if the workload produces a wrong
    answer — a cached wrong answer would poison every later figure, so
    verification happens before any caching layer sees the record.

    With ``trace_dir`` set, the run is observed through an event bus
    and a Perfetto trace is written to :func:`trace_artifact_path`.
    Tracing never enters the cache key — a cache hit simply skips the
    artifact, and the cold path with ``trace_dir=None`` is untouched.
    """
    spec.validate()
    config = spec.config()
    n = spec.n_pes * spec.npp

    bus = recorder = None
    if trace_dir is not None:
        from ..obs import EventBus, RingRecorder

        bus = EventBus()
        recorder = RingRecorder(bus)

    started = time.perf_counter()
    fn = get_app(spec.app)
    kwargs = dict(
        n_pes=spec.n_pes, n=n, h=spec.h, config=config, seed=spec.seed, obs=bus
    )
    # The dispatch funnel every entry point shares; the spec's one
    # execution field, ``compiled``, already rides on ``config``.
    result = call_with_plan(fn, kwargs, spec.execution_plan)
    verified = result_ok(result)
    if not verified:
        raise ProgramError(f"{spec.app} run produced a wrong answer at {spec.describe()}")

    if recorder is not None:
        import os

        from ..obs import write_perfetto

        os.makedirs(trace_dir, exist_ok=True)
        write_perfetto(
            trace_artifact_path(trace_dir, spec), recorder.events, n_pes=spec.n_pes
        )

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


def run_job_worker(
    spec: JobSpec, timeout: float | None = None, trace_dir: str | None = None
):
    """Pool entry point: execute one job under its wall-clock budget.

    Top-level (picklable) by design — ``ProcessPoolExecutor`` ships it
    to worker processes by qualified name; the sweep layer binds
    ``trace_dir`` with ``functools.partial`` when tracing is on.
    """
    with deadline(timeout):
        return execute_job(spec, trace_dir=trace_dir)
