"""CLI surface of the execution engine: cache, export and runner flags."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.experiments import results
from repro.experiments.results import CHECKS


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def test_cli_cache_stats_and_purge(capsys, cache_dir):
    main(["fig8", "a", "--cache-dir", str(cache_dir)])
    capsys.readouterr()

    main(["cache", "stats", "--cache-dir", str(cache_dir)])
    assert "entries" in capsys.readouterr().out

    main(["cache", "purge", "--cache-dir", str(cache_dir)])
    assert "purged" in capsys.readouterr().out
    assert not cache_dir.exists()

    main(["cache", "stats", "--cache-dir", str(cache_dir)])
    assert "0 entries" in capsys.readouterr().out


def test_cli_cache_stats_json_schema(capsys, cache_dir):
    main(["fig8", "a", "--cache-dir", str(cache_dir)])
    capsys.readouterr()

    main(["cache", "stats", "--json", "--cache-dir", str(cache_dir)])
    payload = json.loads(capsys.readouterr().out)
    # CacheStats.to_dict().
    assert {"root", "schema", "entries", "bytes", "timed_entries",
            "wall_seconds", "peak_rss_kb"} == set(payload)
    assert payload["entries"] > 0
    assert payload["root"] == str(cache_dir)


def test_cli_export_reports_runner_summary(capsys, tmp_path, cache_dir):
    # The cold export executes every job, so it gets the pool; the warm
    # one executes none and runs serially.
    out_a = tmp_path / "a"
    main(["export", "--out", str(out_a), "--jobs", "2",
          "--cache-dir", str(cache_dir)])
    out = capsys.readouterr().out
    assert (out_a / "all_figures.csv").exists()

    # One PASS/FAIL line per verdict, as in the results file, then the
    # runner summary.  A failing verdict is a result: main() returns.
    lines = out.splitlines()
    verdicts = [line.split(" ", 2)[:2] for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert [vid for _, vid in verdicts] == list(CHECKS)
    results = json.loads((out_a / "RESULTS_tiny.json").read_text())
    assert [[v["id"], v["passed"]] for v in results["verdicts"]] == [
        [vid, word == "PASS"] for word, vid in verdicts
    ]
    assert lines[-1].startswith("runner:")

    # Warm re-export: the command's new runner starts with an empty
    # memo, so every job comes from disk and none executes.
    out_b = tmp_path / "b"
    main(["export", "--out", str(out_b), "--jobs", "1",
          "--cache-dir", str(cache_dir)])
    warm = capsys.readouterr().out
    assert "0 executed" in warm

    # And the two exports are byte-identical, file by file.
    for path in sorted(out_a.glob("*.csv")):
        assert (out_b / path.name).read_bytes() == path.read_bytes()


def test_cli_export_no_cache(capsys, tmp_path, cache_dir, monkeypatch):
    # A short thread sweep keeps this cold export small.
    monkeypatch.setattr(results, "THREAD_SWEEP", (1, 2, 4))
    main(["export", "--out", str(tmp_path / "out"), "--jobs", "1",
          "--cache-dir", str(cache_dir), "--no-cache"])
    out = capsys.readouterr().out
    assert "disk cache off" in out
    assert not cache_dir.exists()


def test_cli_fig_command_accepts_runner_flags(capsys, cache_dir):
    main(["fig6", "a", "--jobs", "2", "--cache-dir", str(cache_dir)])
    assert "Fig 6(a)" in capsys.readouterr().out
    assert cache_dir.exists(), "panel run should populate the disk cache"
