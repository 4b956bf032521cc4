"""Experiment drivers at tiny scale: caching, panels, microbenchmarks."""

import pytest

from repro.experiments import (
    THREAD_SWEEP,
    default_scale,
    measure_overhead_null_loop,
    measure_remote_read_latency,
)
from repro.errors import ConfigError
from repro.experiments.figures import Panel, format_panel, panel, panel_entry, panel_specs
from repro.runner import JobSpec, Runner, expand_sweep

#: One memo for the module, so panels that share runs execute them once.
RUNNER = Runner()


def _one(spec, runner=RUNNER):
    """One job's record."""
    return runner.run([spec])[spec]


def _entry(figure, letter, scale, threads):
    """Run one panel through the runner and build its entry."""
    p = panel(figure, letter, scale)
    return panel_entry(p, RUNNER.run(panel_specs(p, threads)), threads)


def test_default_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    assert default_scale().name == "tiny"
    monkeypatch.setenv("REPRO_SCALE", "nope")
    with pytest.raises(ConfigError):
        default_scale()


def test_run_app_is_cached():
    runner = Runner()
    a = _one(JobSpec("sort", 4, 8, 2), runner)
    b = _one(JobSpec("sort", 4, 8, 2), runner)
    assert a is b  # memoised
    c = _one(JobSpec("sort", 4, 8, 2, seed=1), runner)
    assert c is not a


def test_run_record_fields():
    rec = _one(JobSpec("fft", 4, 8, 2))
    assert rec.verified
    assert rec.comm_seconds >= rec.comm_idle_seconds >= 0
    assert abs(sum(rec.breakdown().values()) - 100.0) < 1e-6
    from repro import SwitchKind

    assert rec.switches(SwitchKind.REMOTE_READ) > 0


def test_sweep_skips_oversized_thread_counts():
    recs = RUNNER.run(expand_sweep("sort", 4, 8, (1, 2, 16)))
    assert {spec.h for spec in recs} == {1, 2, 8} - {8} | {1, 2}  # h=16 > npp=8 skipped


def test_fig6_series_structure():
    p = Panel("fig6", "a", "sort", 4, (8,))
    series = panel_entry(p, RUNNER.run(panel_specs(p, (1, 2, 4))), (1, 2, 4))["series"]
    assert set(series) == {8}
    assert set(series[8]) == {1, 2, 4}
    assert all(v >= 0 for v in series[8].values())


def test_fig6_panel_and_format(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    scale = default_scale()
    entry = _entry("fig6", "a", scale, (1, 2, 4))
    out = format_panel("fig6", "a", entry)
    assert "B-sorting" in out and "communication time" in out
    with pytest.raises(ConfigError):
        panel("fig6", "z", scale)


def test_fig7_efficiency_panel(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    scale = default_scale()
    entry = _entry("fig7", "c", scale, (1, 2, 4))
    for curve in entry["series"].values():
        assert curve[1] == 0.0
    out = format_panel("fig7", "c", entry)
    assert "efficiency" in out


def test_fig8_panel_percentages(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    scale = default_scale()
    entry = _entry("fig8", "a", scale, (1, 2))
    for comps in entry["series"].values():
        assert abs(sum(comps.values()) - 100.0) < 1e-6
    out = format_panel("fig8", "a", entry)
    assert "execution time distribution" in out
    with pytest.raises(ConfigError):
        panel("fig8", "q", scale)


def test_fig9_panel_switches(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    scale = default_scale()
    entry = _entry("fig9", "a", scale, (1, 4))
    series = entry["series"]
    assert series[1]["remote_read"] > 0
    assert series[4]["iter_sync"] > series[1]["iter_sync"] * 0.5
    out = format_panel("fig9", "a", entry)
    assert "switches per processor" in out
    with pytest.raises(ConfigError):
        panel("fig9", "x", scale)


def test_thread_sweep_constant():
    assert THREAD_SWEEP[0] == 1 and THREAD_SWEEP[-1] == 16


def test_remote_read_latency_near_one_microsecond():
    """µ1: the paper quotes ~1 µs (20-40 cycles) per remote read."""
    points = measure_remote_read_latency(n_pes=64, reads=64)
    for p in points:
        assert 8 <= p.roundtrip_cycles <= 40, p
        assert 0.4 <= p.microseconds <= 2.0, p
    assert {p.target for p in points} >= {1, 32, 63}


def test_null_loop_overhead_is_packet_generation():
    """µ2: a null loop's overhead is exactly the pkt-gen instructions."""
    res = measure_overhead_null_loop(n_pes=4, writes=128)
    assert res.cycles_per_packet == pytest.approx(1.0)
    assert res.overhead_cycles == 128


def test_run_app_rejects_unknown_app():
    from repro.errors import ProgramError

    with pytest.raises(ProgramError, match="unknown app"):
        _one(JobSpec("quicksort", 4, 8, 1))


def test_scale_size_roles():
    scale = default_scale()
    assert scale.small_size == scale.sizes_per_pe[0]
    assert scale.large_size == scale.sizes_per_pe[-1]
    assert scale.sizes_for(scale.p_small) == scale.sizes_per_pe
