"""The execution engine: job hashing, disk cache, pool, orchestration."""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.errors import ConfigError, ProgramError, SimulationError
from repro.metrics.serialize import run_record_from_dict, run_record_to_dict
from repro.runner import (
    JobSpec,
    PoolStatus,
    ResultCache,
    Runner,
    dedupe,
    expand_sweep,
    execute_job,
    machine_fingerprint,
    run_jobs,
)
from repro.runner import jobs as jobs_mod

SPEC = JobSpec(app="sort", n_pes=4, npp=8, h=2)


# ----------------------------------------------------------------------
# JobSpec hashing
# ----------------------------------------------------------------------
def test_key_is_stable_and_sensitive():
    assert SPEC.key() == JobSpec(app="sort", n_pes=4, npp=8, h=2).key()
    distinct = {
        SPEC.key(),
        JobSpec(app="fft", n_pes=4, npp=8, h=2).key(),
        JobSpec(app="sort", n_pes=8, npp=8, h=2).key(),
        JobSpec(app="sort", n_pes=4, npp=16, h=2).key(),
        JobSpec(app="sort", n_pes=4, npp=8, h=4).key(),
        JobSpec(app="sort", n_pes=4, npp=8, h=2, seed=1).key(),
        JobSpec(app="sort", n_pes=4, npp=8, h=2, em4_mode=True).key(),
        JobSpec(app="sort", n_pes=4, npp=8, h=2, network_model="analytic").key(),
    }
    assert len(distinct) == 8


def test_key_changes_on_schema_bump(monkeypatch):
    before = SPEC.key()
    monkeypatch.setattr(jobs_mod, "SCHEMA_VERSION", jobs_mod.SCHEMA_VERSION + 1)
    assert SPEC.key() != before


def test_machine_fingerprint_covers_timing():
    base = SPEC.config()
    assert machine_fingerprint(base) == machine_fingerprint(SPEC.config())
    retimed = base.with_(timing=base.timing.scaled(reg_save=7))
    assert machine_fingerprint(retimed) != machine_fingerprint(base)


def test_spec_validation():
    with pytest.raises(ProgramError, match="unknown app"):
        JobSpec(app="quicksort", n_pes=4, npp=8, h=1).validate()
    with pytest.raises(ConfigError):
        JobSpec(app="sort", n_pes=0, npp=8, h=1).validate()


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def test_expand_sweep_skips_oversized_h():
    specs = expand_sweep("sort", 4, 8, (1, 2, 16))
    assert [s.h for s in specs] == [1, 2]


# ----------------------------------------------------------------------
# RunRecord serialization round trip
# ----------------------------------------------------------------------
def test_run_record_dict_round_trip():
    record = execute_job(SPEC)
    clone = run_record_from_dict(json.loads(json.dumps(run_record_to_dict(record))))
    assert clone == record
    assert clone is not record


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
def test_cache_miss_put_hit(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(SPEC) is None
    record = execute_job(SPEC)
    path = cache.put(SPEC, record)
    assert path.exists() and SPEC in cache
    assert cache.get(SPEC) == record
    st = cache.stats()
    assert st.entries == len(cache) == 1 and st.bytes > 0


def test_execute_job_records_wall_time_and_rss(tmp_path):
    record = execute_job(SPEC)
    exec_info = getattr(record, "_exec")
    assert exec_info["wall_seconds"] > 0
    assert exec_info["max_rss_kb"] is None or exec_info["max_rss_kb"] > 0
    cache = ResultCache(str(tmp_path))
    cache.put(SPEC, record)
    st = cache.stats()
    assert st.timed_entries == 1
    assert st.wall_seconds > 0
    assert "timed entries" in st.describe()
    # The side channel never leaks into record equality or serialisation.
    assert "_exec" not in run_record_to_dict(record)
    assert cache.get(SPEC) == record


def test_recorded_rss_ignores_reaped_children(monkeypatch):
    """A job's peak RSS is this process's own: a bigger child reaped
    earlier (a finished pool worker, any subprocess) is not the job's."""
    import resource
    from types import SimpleNamespace

    peaks = {resource.RUSAGE_SELF: 40_000, resource.RUSAGE_CHILDREN: 400_000}
    monkeypatch.setattr(
        resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=peaks[who])
    )
    record = execute_job(SPEC)
    assert getattr(record, "_exec")["max_rss_kb"] == 40_000


def test_cache_env_var_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
    assert ResultCache().root == tmp_path / "via-env"
    assert ResultCache(tmp_path / "explicit").root == tmp_path / "explicit"


def test_cache_schema_bump_invalidates(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute_job(SPEC))
    monkeypatch.setattr(jobs_mod, "SCHEMA_VERSION", jobs_mod.SCHEMA_VERSION + 1)
    assert ResultCache(tmp_path).get(SPEC) is None  # new version dir, no entry


def test_cache_recovers_from_corruption(tmp_path):
    cache = ResultCache(tmp_path)
    record = execute_job(SPEC)
    path = cache.put(SPEC, record)

    path.write_text("{ not json")
    assert cache.get(SPEC) is None
    assert not path.exists(), "corrupted entry should be discarded"

    # Well-formed JSON whose key doesn't match the spec is stale too.
    other = JobSpec(app="sort", n_pes=4, npp=8, h=1)
    cache.put(SPEC, record)
    payload = json.loads(cache.path_for(SPEC).read_text())
    bad = dict(payload, key=other.key())
    cache.path_for(SPEC).write_text(json.dumps(bad))
    assert cache.get(SPEC) is None

    # Structurally broken record payload.
    cache.put(SPEC, record)
    payload = json.loads(cache.path_for(SPEC).read_text())
    del payload["record"]["runtime_seconds"]
    cache.path_for(SPEC).write_text(json.dumps(payload))
    assert cache.get(SPEC) is None


def test_cache_purge(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, execute_job(SPEC))
    assert cache.purge() == 1
    assert not pathlib.Path(tmp_path).exists()
    assert cache.purge() == 0  # idempotent


# ----------------------------------------------------------------------
# Orchestration: memo -> disk -> execute
# ----------------------------------------------------------------------
def test_run_job_memo_then_disk(tmp_path):
    runner = Runner(cache=ResultCache(tmp_path))
    first = runner.run([SPEC])[SPEC]
    assert runner.run([SPEC])[SPEC] is first
    # A new runner has an empty memo, so the same job comes from disk.
    fresh = Runner(cache=ResultCache(tmp_path))
    rehydrated = fresh.run([SPEC])[SPEC]
    assert rehydrated == first and rehydrated is not first
    assert (runner.stats.executed, runner.stats.disk_hits, runner.stats.memo_hits) == (1, 0, 1)
    assert (fresh.stats.executed, fresh.stats.disk_hits, fresh.stats.memo_hits) == (0, 1, 0)


def test_no_cache_option_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # the default root
    runner = Runner()
    first = runner.run([SPEC])[SPEC]
    assert runner.run([SPEC])[SPEC] is first  # the memo still serves it
    assert (runner.stats.executed, runner.stats.memo_hits) == (1, 1)
    assert not list(tmp_path.iterdir())


def test_options_validation_and_reset():
    with pytest.raises(ConfigError):
        Runner(jobs=0)
    # Runners share nothing: a job one has run is new to the next.
    used = Runner(jobs=3)
    used.run([SPEC])
    fresh = Runner()
    assert fresh.jobs == 1 and fresh.cache is None and fresh.stats.total == 0
    fresh.run([SPEC])
    assert fresh.stats.executed == 1


# ----------------------------------------------------------------------
# Parallel-vs-serial determinism (the acceptance property)
# ----------------------------------------------------------------------
DETERMINISM_SPECS = expand_sweep("sort", 4, 8, (1, 2, 4)) + expand_sweep(
    "fft", 4, 8, (1, 2, 4)
)


def test_parallel_matches_serial(tmp_path):
    serial = Runner(jobs=1, cache=ResultCache(tmp_path / "a")).run(DETERMINISM_SPECS)
    parallel = Runner(jobs=4, cache=ResultCache(tmp_path / "b")).run(DETERMINISM_SPECS)
    assert serial == parallel
    assert list(serial) == list(parallel) == dedupe(DETERMINISM_SPECS)


def test_warm_cache_executes_nothing(tmp_path):
    start = time.perf_counter()
    cold = Runner(jobs=4, cache=ResultCache(tmp_path)).run(DETERMINISM_SPECS)
    cold_s = time.perf_counter() - start
    runner = Runner(jobs=4, cache=ResultCache(tmp_path))
    start = time.perf_counter()
    warm = runner.run(DETERMINISM_SPECS)
    warm_s = time.perf_counter() - start
    assert warm == cold
    assert runner.stats.executed == 0 and runner.stats.disk_hits == len(cold)
    assert warm_s < cold_s, f"warm pass {warm_s:.3f} s not faster than cold {cold_s:.3f} s"


def test_sweep_threads_shape(tmp_path):
    runs = Runner(cache=ResultCache(tmp_path)).run(expand_sweep("sort", 4, 8, (1, 2, 16)))
    records = {spec.h: rec for spec, rec in runs.items()}
    assert sorted(records) == [1, 2]
    assert all(rec.h == h for h, rec in records.items())


# ----------------------------------------------------------------------
# Pool: progress, crash retry
# ----------------------------------------------------------------------
def test_pool_progress_counts(tmp_path):
    seen: list[tuple[int, int]] = []
    runner = Runner(
        jobs=2,
        cache=ResultCache(tmp_path),
        progress=lambda st: seen.append((st.completed, st.cached)),
    )
    runner.run(DETERMINISM_SPECS[:3])
    assert seen[-1][0] == 3  # every execution reported
    assert all(c <= 3 for c, _ in seen)


def test_pool_status_describe():
    st = PoolStatus(total=10, workers=4, cached=3, completed=2, retried=1)
    text = st.describe()
    assert "5/10" in text and "3 cached" in text and "retried" in text
    assert st.running == min(4, st.outstanding) == 4


def test_run_jobs_rejects_bad_jobs():
    with pytest.raises(SimulationError):
        run_jobs([SPEC], jobs=0)


def test_run_jobs_empty():
    assert run_jobs([], jobs=4) == {}


def _flagged_crash_worker(spec):
    """Crash the worker process hard iff this worker consumes the flag.

    The flag is consumed *before* dying, so the retry pass succeeds —
    modelling a transient worker loss (OOM kill, stray signal).  The
    ``unlink`` is the atomic test-and-consume: when both pool workers
    race for the flag, exactly one wins and crashes.
    """
    flag = pathlib.Path(os.environ["REPRO_TEST_CRASH_FLAG"])
    try:
        flag.unlink()
    except FileNotFoundError:
        pass
    else:
        os._exit(17)
    return execute_job(spec)


def _always_crash_worker(spec):
    os._exit(17)


def test_worker_crash_is_retried_once(tmp_path, monkeypatch):
    flag = tmp_path / "crash-once"
    flag.write_text("boom")
    monkeypatch.setenv("REPRO_TEST_CRASH_FLAG", str(flag))
    events: list[int] = []
    status = PoolStatus(total=2, workers=2)
    results = run_jobs(
        DETERMINISM_SPECS[:2],
        jobs=2,
        worker=_flagged_crash_worker,
        progress=lambda st: events.append(st.retried),
        status=status,
    )
    assert len(results) == 2
    assert all(rec.verified for rec in results.values())
    assert status.retried >= 1 and max(events) >= 1


def test_worker_crash_twice_raises():
    with pytest.raises(SimulationError, match="crashed twice"):
        run_jobs(DETERMINISM_SPECS[:2], jobs=2, worker=_always_crash_worker)
