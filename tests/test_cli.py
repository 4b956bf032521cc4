"""Command-line interface (`python -m repro ...`)."""

import pytest

from repro.__main__ import main


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


def test_cli_micro(capsys):
    main(["micro"])
    out = capsys.readouterr().out
    assert "u1" in out and "u2" in out
    assert "1.00 cycles/packet" in out


def test_cli_rejects_unknown_panel():
    with pytest.raises(SystemExit):
        main(["fig6", "z"])


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


def test_cli_goldens_check(capsys):
    main(["goldens", "--check", "tests/goldens"])
    assert "goldens match" in capsys.readouterr().out


def test_cli_goldens_requires_mode():
    with pytest.raises(SystemExit):
        main(["goldens"])
