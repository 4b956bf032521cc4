"""Command-line interface (`python -m repro ...`)."""

import io
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.experiments.microbench import probes

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_cli_sort(capsys):
    main(["sort", "--pes", "4", "--size", "16", "--threads", "2"])
    out = capsys.readouterr().out
    assert "sort: n=64 P=4 h=2 -> OK" in out
    assert "breakdown:" in out
    assert "remote_read" in out


def test_cli_fft(capsys):
    main(["fft", "--pes", "4", "--size", "16", "--threads", "2"])
    out = capsys.readouterr().out
    assert "fft: n=64 P=4 h=2 -> OK" in out


def test_cli_fig6_panel(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    main(["fig6", "a"])
    out = capsys.readouterr().out
    assert "Fig 6(a)" in out
    assert "communication time" in out


def test_cli_fig7_panel(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    main(["fig7", "c"])
    out = capsys.readouterr().out
    assert "Fig 7(c)" in out and "efficiency" in out


def test_cli_fig8_and_fig9(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    main(["fig8", "a"])
    assert "distribution" in capsys.readouterr().out
    main(["fig9", "c"])
    assert "switches per processor" in capsys.readouterr().out


def test_cli_fig6_plot_draws_the_chart(capsys):
    main(["fig6", "a", "--plot"])
    table, chart = capsys.readouterr().out.split("\n\n", 1)
    assert table.startswith("Fig 6(a)")
    assert chart.startswith("Fig 6(a)\n")
    assert "threads" in chart and "o=n/P=8" in chart and "[comm [s]]" in chart


class _TerminalStderr(io.StringIO):
    def isatty(self) -> bool:
        return True


def test_cli_figure_ends_its_progress_line(monkeypatch, capsys, tmp_path):
    """On a terminal the runner draws a \\r-rewriting progress line while
    jobs execute (``--no-cache`` makes sure some do); the figure command
    ends that line before it prints the table."""
    stderr = _TerminalStderr()
    monkeypatch.setattr(sys, "stderr", stderr)
    main(["fig6", "a", "--no-cache"])
    assert capsys.readouterr().out.startswith("Fig 6(a)")
    text = stderr.getvalue()
    assert text.startswith("\r  ") and "jobs" in text
    assert text.endswith("\n")

    # A run that executes nothing draws no line, so it ends none.
    cache = ["--cache-dir", str(tmp_path / "cache")]
    main(["fig6", "a", *cache])
    drawn = stderr.getvalue()
    assert drawn.endswith("\n") and len(drawn) > len(text)
    main(["fig6", "a", *cache])
    assert stderr.getvalue() == drawn


@pytest.mark.parametrize("fig", ["fig7", "fig8", "fig9"])
def test_cli_plot_is_fig6_only(fig, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([fig, "a", "--plot"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --plot" in capsys.readouterr().err


def test_cli_micro(capsys):
    main(["micro"])
    out = capsys.readouterr().out
    assert "u1" in out and "u2" in out
    assert "1.00 cycles/packet" in out

    # The numbers printed are the rows the export judges, rounded.
    mu1, mu2 = probes().values()
    lines = out.splitlines()
    assert lines[0] == mu1["title"]
    table = [[float(cell) for cell in line.split()] for line in lines[3:3 + len(mu1["rows"])]]
    assert table == [
        [r["target"], r["hops"], round(r["roundtrip_cycles"], 1), round(r["latency_us"], 3)]
        for r in mu1["rows"]
    ]
    [row] = mu2["rows"]
    title, value = lines[-2:]
    assert title == mu2["title"]
    assert value == f"{row['cycles_per_packet']:.2f} cycles/packet over {row['writes']} writes"
    assert row["writes"] == 2048


def test_cli_rejects_unknown_panel():
    with pytest.raises(SystemExit):
        main(["fig6", "z"])


def test_cli_closed_pipe_exits_without_traceback():
    """A reader that closes the pipe early (`repro fig6 a | head -1`)
    ends the command with status 1 and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "apps"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["fig6", "a", "--jobs", "0"], "--jobs"),
        (["trace", "sort", "--buffer", "0"], "--buffer"),
        (["sort", "--pes", "0"], "--pes"),
        (["fft", "--size", "0"], "--size"),
        (["trace", "sort", "--threads", "0"], "--threads"),
    ],
    ids=["jobs-zero", "buffer-zero",
         "sort-pes-zero", "fft-size-zero", "trace-threads-zero"],
)
def test_cli_rejects_non_positive_counts(argv, flag, capsys):
    """A bad count is a usage error (exit 2), caught before any run."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}: expected a positive integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sort", "--pes", "3"],
        ["sort", "--pes", "4", "--size", "16", "--threads", "32"],
        ["fft", "--size", "24"],
        ["trace", "fft", "--pes", "6"],
    ],
    ids=["sort-pes-3", "sort-threads-over-size", "fft-size-24", "trace-fft-pes-6"],
)
def test_cli_rejects_shapes_the_app_rejects(argv, tmp_path, capsys):
    """An app's ProgramError on a single run is a usage error, not a traceback."""
    if argv[0] == "trace":
        argv = [*argv, "--out", str(tmp_path / "run.perfetto.json")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert "Traceback" not in err


def test_cli_json_output(capsys):
    main(["sort", "--pes", "4", "--size", "16", "--threads", "2", "--json"])
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_pes"] == 4
    assert payload["runtime_cycles"] > 0
