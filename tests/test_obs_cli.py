"""Observability surface: trace CLI, --timeline, --trace."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.obs import validate_perfetto
from repro.trace import TraceEvent, utilization


def test_cli_trace_subcommand(capsys, tmp_path):
    out_file = tmp_path / "run.perfetto.json"
    main(["trace", "sort", "--pes", "2", "--size", "8", "--threads", "2",
          "--out", str(out_file)])
    out = capsys.readouterr().out
    assert "sort: n=16 P=2 h=2 -> OK" in out
    assert "context switches by kind" in out
    assert "remote_read" in out
    obj = json.loads(out_file.read_text())
    assert validate_perfetto(obj) == []


def test_cli_trace_all_apps(capsys, tmp_path):
    for app, pes in (("fft", 2), ("transpose", 2), ("emc-sort", 2)):
        out_file = tmp_path / f"{app}.perfetto.json"
        main(["trace", app, "--pes", str(pes), "--size", "8", "--threads", "1",
              "--out", str(out_file)])
        capsys.readouterr()
        assert validate_perfetto(json.loads(out_file.read_text())) == []


def timeline_rows(out):
    return [line for line in out.splitlines() if line.startswith("PE")]


def test_cli_app_timeline(capsys, tmp_path):
    argv = ["sort", "--pes", "4", "--size", "8", "--threads", "2", "--timeline"]
    main(argv)
    out = capsys.readouterr().out
    assert "sort: n=32 P=4 h=2 -> OK" in out
    rows = timeline_rows(out)
    assert [row[:7] for row in rows] == [f"PE{pe:>3} |" for pe in range(4)]
    assert "legend: # burst" in out

    # --trace shares the run's event bus; the timeline is unchanged.
    out_file = tmp_path / "sort.perfetto.json"
    main(argv + ["--trace", str(out_file)])
    captured = capsys.readouterr()
    assert timeline_rows(captured.out) == rows
    assert "legend: # burst" in captured.out
    assert "wrote" in captured.err
    assert validate_perfetto(json.loads(out_file.read_text())) == []


@pytest.mark.parametrize("app", ["sort", "fft"])
def test_cli_json_and_timeline_are_exclusive(app, capsys):
    # The timeline is text: printed after --json it broke the document.
    with pytest.raises(SystemExit) as excinfo:
        main([app, "--pes", "2", "--size", "8", "--threads", "2",
              "--json", "--timeline"])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_app_trace_flag(capsys, tmp_path):
    out_file = tmp_path / "fft.perfetto.json"
    main(["fft", "--pes", "2", "--size", "8", "--threads", "2",
          "--trace", str(out_file)])
    err = capsys.readouterr().err
    assert "wrote" in err
    assert validate_perfetto(json.loads(out_file.read_text())) == []


def test_cli_json_includes_percentiles(capsys):
    main(["sort", "--pes", "2", "--size", "8", "--threads", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    net = payload["network"]
    for key in ("p50_latency", "p95_latency", "max_in_flight", "max_port_wait"):
        assert key in net
    assert net["p50_latency"] <= net["p95_latency"] <= net["max_latency"]


def test_utilization_accepts_explicit_window():
    events = [TraceEvent(10, 20, "burst"), TraceEvent(20, 30, "idle")]
    # Default: busy 10 over the event span 20.
    assert utilization(events) == pytest.approx(0.5)
    # Explicit window: same busy time over the full run.
    assert utilization(events, start=0, end=40) == pytest.approx(0.25)
    # Bursts are clipped to the window.
    assert utilization(events, start=15, end=25) == pytest.approx(0.5)
    assert utilization(events, start=30, end=30) == 0.0
    assert utilization([], start=0, end=100) == 0.0
