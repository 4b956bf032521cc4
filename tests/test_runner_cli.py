"""CLI surface of the execution engine: sweep, cache, export flags."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.runner import clear_memo


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def test_cli_sweep_cold_then_warm(capsys, cache_dir):
    argv = ["sweep", "--jobs", "2", "--figures", "fig6",
            "--threads", "1,2", "--cache-dir", str(cache_dir)]
    clear_memo()
    main(argv)
    cold = capsys.readouterr().out
    assert "sweep: scale 'tiny'" in cold
    assert "0 executed" not in cold and "executed" in cold
    assert "cache:" in cold

    clear_memo()  # force the disk layer to prove itself
    main(argv)
    warm = capsys.readouterr().out
    assert "0 executed" in warm
    assert "disk hits" in warm


def test_cli_sweep_no_cache(capsys, cache_dir):
    clear_memo()
    main(["sweep", "--jobs", "1", "--figures", "fig8", "--threads", "1",
          "--cache-dir", str(cache_dir), "--no-cache"])
    out = capsys.readouterr().out
    assert "disk cache off" in out
    assert not cache_dir.exists()


def test_cli_cache_stats_and_purge(capsys, cache_dir):
    clear_memo()
    main(["sweep", "--jobs", "1", "--figures", "fig8", "--threads", "1",
          "--cache-dir", str(cache_dir)])
    capsys.readouterr()

    main(["cache", "stats", "--cache-dir", str(cache_dir)])
    assert "entries" in capsys.readouterr().out

    main(["cache", "purge", "--cache-dir", str(cache_dir)])
    assert "purged" in capsys.readouterr().out
    assert not cache_dir.exists()

    main(["cache", "stats", "--cache-dir", str(cache_dir)])
    assert "0 entries" in capsys.readouterr().out


def test_cli_cache_stats_json_schema(capsys, cache_dir):
    clear_memo()
    main(["sweep", "--jobs", "1", "--figures", "fig8", "--threads", "1",
          "--cache-dir", str(cache_dir)])
    capsys.readouterr()

    main(["cache", "stats", "--json", "--cache-dir", str(cache_dir)])
    payload = json.loads(capsys.readouterr().out)
    # CacheStats.to_dict().
    assert {"root", "schema", "entries", "bytes", "timed_entries",
            "wall_seconds", "peak_rss_kb"} == set(payload)
    assert payload["entries"] > 0
    assert payload["root"] == str(cache_dir)


def test_cli_export_reports_runner_summary(capsys, tmp_path, cache_dir):
    out_a = tmp_path / "a"
    main(["export", "--out", str(out_a), "--jobs", "1",
          "--cache-dir", str(cache_dir)])
    out = capsys.readouterr().out
    assert "runner:" in out
    assert (out_a / "all_figures.csv").exists()

    # Warm re-export from a fresh memo: zero simulations executed.
    clear_memo()
    out_b = tmp_path / "b"
    main(["export", "--out", str(out_b), "--jobs", "2",
          "--cache-dir", str(cache_dir)])
    warm = capsys.readouterr().out
    assert "0 executed" in warm

    # And the two exports are byte-identical, file by file.
    for path in sorted(out_a.glob("*.csv")):
        assert (out_b / path.name).read_bytes() == path.read_bytes()


def test_cli_fig_command_accepts_runner_flags(capsys, cache_dir):
    main(["fig6", "a", "--jobs", "2", "--cache-dir", str(cache_dir)])
    assert "Fig 6(a)" in capsys.readouterr().out
    assert cache_dir.exists(), "panel run should populate the disk cache"


def test_cli_sweep_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["sweep", "--figures", "fig42"])
