"""Per-job wall-clock budgets (`deadline`) on and off the main thread.

`pool._run_serial` runs the worker in the caller's thread, so a runner
call made off the main thread has no SIGALRM; there the watchdog thread
is the only budget.  These tests pin both mechanisms.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runner.worker import JobTimeout, deadline


# ----------------------------------------------------------------------
# deadline: off-main-thread watchdog
# ----------------------------------------------------------------------

def run_in_thread(fn, timeout=30):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=timeout)


def test_watchdog_times_out_a_busy_loop_off_main_thread():
    def job():
        assert threading.current_thread() is not threading.main_thread()
        started = time.monotonic()
        with pytest.raises(JobTimeout):
            with deadline(0.2):
                end = time.monotonic() + 30
                while time.monotonic() < end:
                    pass
        return time.monotonic() - started

    elapsed = run_in_thread(job)
    assert elapsed < 10  # fired at ~0.2s, nowhere near the 30s loop


def test_watchdog_lets_a_fast_block_finish():
    def job():
        with deadline(5.0):
            return "done"

    assert run_in_thread(job) == "done"


def test_fired_watchdog_is_a_timeout_even_if_the_block_just_finished():
    """Once the watchdog fires the outcome is deterministically
    JobTimeout — a block that wins the delivery race still times out,
    and no asynchronous exception leaks into later code."""

    def job():
        with pytest.raises(JobTimeout):
            with deadline(0.05):
                # Sleep in C past the budget: the async exception cannot
                # be delivered until the sleep returns, at which point
                # the block is about to exit — the race the synchronous
                # re-raise in `deadline` exists to close.
                time.sleep(0.3)
        # Prove nothing is pending: this loop must run unharmed.
        for _ in range(10000):
            pass
        return "clean"

    assert run_in_thread(job) == "clean"


def test_deadline_none_and_zero_are_noops_off_main_thread():
    def job():
        with deadline(None):
            with deadline(0):
                return "ran"

    assert run_in_thread(job) == "ran"


def test_block_exception_propagates_unchanged_through_the_watchdog():
    def job():
        with pytest.raises(ValueError):
            with deadline(5.0):
                raise ValueError("the block's own error")
        return "ok"

    assert run_in_thread(job) == "ok"


def test_sigalrm_deadline_still_enforced_on_main_thread():
    started = time.monotonic()
    with pytest.raises(JobTimeout):
        with deadline(1):
            end = time.monotonic() + 30
            while time.monotonic() < end:
                pass
    assert time.monotonic() - started < 10
