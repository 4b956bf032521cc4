"""Concurrent writers racing on one cache key must never corrupt it.

The shared content-addressed cache is written by pool processes,
threads of one process, and independent CLI runs at once.  These tests
race real writers — threads in one process and separate interpreter
processes — on the *same* key and assert the invariants the design
claims: no FileExistsError, no partial reads, no leaked temp files,
exactly one entry.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runner import JobSpec, ResultCache
from repro.runner.worker import execute_job

SPEC = JobSpec(app="sort", n_pes=2, npp=8, h=1)


@pytest.fixture(scope="module")
def record():
    return execute_job(SPEC)


def tmp_leftovers(root: pathlib.Path) -> list[pathlib.Path]:
    return list(root.rglob("*.tmp"))


def test_threads_racing_one_key_leave_one_clean_entry(tmp_path, record):
    cache = ResultCache(tmp_path)
    rounds_per_thread = 25
    n_threads = 8

    def writer(_):
        for _ in range(rounds_per_thread):
            cache.put(SPEC, record)
            got = cache.get(SPEC)
            assert got is not None, "reader saw a partial entry"
        return True

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        assert all(pool.map(writer, range(n_threads)))

    assert len(cache) == 1
    assert tmp_leftovers(tmp_path) == []
    final = cache.get(SPEC)
    assert final.runtime_seconds == record.runtime_seconds


def test_interleaved_caches_share_one_instance_of_the_entry(tmp_path, record):
    """Two independent ResultCache objects (as two runner processes
    would hold) racing the same root converge on identical bytes."""
    one, two = ResultCache(tmp_path), ResultCache(tmp_path)

    def writer(cache):
        for _ in range(25):
            cache.put(SPEC, record)
            assert cache.get(SPEC) is not None
        return cache.path_for(SPEC).read_bytes()

    with ThreadPoolExecutor(max_workers=2) as pool:
        bytes_one, bytes_two = pool.map(writer, (one, two))

    assert bytes_one == bytes_two
    payload = json.loads(bytes_one)
    assert payload["key"] == SPEC.key()
    assert tmp_leftovers(tmp_path) == []


def test_two_processes_executing_one_spec(tmp_path):
    """Two separate interpreter processes each run the runner's cache
    protocol (get, else execute and put) three times for the same
    JobSpec against one cache root, simultaneously.  Both must succeed,
    and the survivor entry must be readable (no FileExistsError, no
    partial-read path)."""
    script = (
        "import json, sys\n"
        "from repro.runner import JobSpec, ResultCache\n"
        "from repro.runner.worker import execute_job\n"
        "spec = JobSpec(app='sort', n_pes=2, npp=8, h=1)\n"
        "cache = ResultCache(sys.argv[1])\n"
        "sources = []\n"
        "for _ in range(3):\n"
        "    if cache.get(spec) is not None:\n"
        "        sources.append('cache')\n"
        "        continue\n"
        "    cache.put(spec, execute_job(spec))\n"
        "    sources.append('executed')\n"
        "print(json.dumps(sources))\n"
    )
    repo = pathlib.Path(__file__).parent.parent
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "HOME": str(tmp_path)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "shared-cache")],
            cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outcomes = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outcomes.append(json.loads(out))

    for sources in outcomes:
        # First job executes or finds the racer's entry; the repeats
        # are warm by then.
        assert sources[0] in ("executed", "cache")
        assert sources[1:] == ["cache", "cache"]

    cache = ResultCache(tmp_path / "shared-cache")
    assert len(cache) == 1
    assert tmp_leftovers(tmp_path / "shared-cache") == []
    assert cache.get(SPEC) is not None


def test_corrupt_entry_is_discarded_not_raised(tmp_path, record):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, record)
    path = cache.path_for(SPEC)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert cache.get(SPEC) is None
    assert not path.exists()
    # The job simply reruns and repopulates.
    cache.put(SPEC, record)
    assert cache.get(SPEC) is not None
