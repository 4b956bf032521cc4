"""ExecutionPlan: the one bundle of execution-strategy knobs.

Covers the frozen dataclass itself (parse/describe/validate), the
``plan=`` plumbing through ``repro.run``, the runner options and the
CLI, the errors Python and argparse raise for removed modes and
spellings, and the SHARD-category observability the sharded engine
emits.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import ExecutionPlan
from repro.errors import ConfigError, PlanError
from repro.obs import Category, EventBus, RingRecorder, ShardWindow
from repro.obs.perfetto import to_perfetto, validate_perfetto


# ----------------------------------------------------------------------
# The dataclass: parse, describe, validate
# ----------------------------------------------------------------------
def test_default_plan_is_sequential_detailed_interpreted():
    plan = ExecutionPlan()
    assert (plan.shards, plan.compiled) == (0, False)
    assert plan.validate() is plan


def test_plan_is_frozen_and_hashable():
    plan = ExecutionPlan(shards=4)
    with pytest.raises(Exception):
        plan.shards = 2  # type: ignore[misc]
    assert hash(plan) == hash(ExecutionPlan(shards=4))
    assert plan != ExecutionPlan(shards=2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", ExecutionPlan()),
        ("shards=4", ExecutionPlan(shards=4)),
        ("shards=2,compiled", ExecutionPlan(shards=2, compiled=True)),
        ("compiled=false", ExecutionPlan()),
    ],
)
def test_parse_accepts_cli_spellings(text, expected):
    assert ExecutionPlan.parse(text) == expected


@pytest.mark.parametrize(
    "text,match",
    [
        ("shards=four", "shards must be an int"),
        ("turbo", "malformed plan token"),
        ("speed=11", "unknown plan key"),
        ("fidelity=hybrid", "unknown plan key"),
        ("compiled=maybe", "compiled must be a boolean"),
        ("shards=-2", "non-negative"),
    ],
)
def test_parse_rejects_malformed_plans(text, match):
    with pytest.raises(PlanError, match=match):
        ExecutionPlan.parse(text)


@pytest.mark.parametrize(
    "plan",
    [
        ExecutionPlan(),
        ExecutionPlan(shards=4),
        ExecutionPlan(compiled=True),
        ExecutionPlan(shards=2, compiled=True),
    ],
)
def test_describe_parse_round_trip(plan):
    assert ExecutionPlan.parse(plan.describe()) == plan


def test_validate_rejects_bad_field_types():
    with pytest.raises(PlanError, match="non-negative"):
        ExecutionPlan(shards=-1).validate()
    with pytest.raises(PlanError, match="compiled must be a bool"):
        ExecutionPlan(compiled="yes").validate()  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Removed modes fail loudly, with the existing typed errors
# ----------------------------------------------------------------------
def test_removed_fidelity_is_an_unknown_job_spec_field():
    from repro.runner.jobs import spec_from_dict

    with pytest.raises(ConfigError, match="unknown job-spec fields"):
        spec_from_dict(
            {"app": "sort", "n_pes": 2, "npp": 8, "h": 1, "fidelity": "detailed"}
        )


def test_cli_rejects_removed_fidelity_flag():
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["sort", "--fidelity", "hybrid"])
    assert excinfo.value.code == 2


def _run_sort(**kwargs):
    return repro.run("sort", n=32, n_pes=4, h=1, **kwargs)


def _sort_app_positional():
    from repro.api import get_app

    return get_app("sort")(2, 16, 2)


def _jobspec_with_plan():
    from repro.runner import JobSpec

    return JobSpec(app="sort", n_pes=8, npp=16, h=2, plan=ExecutionPlan(shards=2))


def _configure_shards():
    from repro.runner import configure

    return configure(shards=2)


def _cli(*argv):
    from repro.__main__ import main

    return lambda: main(list(argv))


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: _run_sort(shards=2), TypeError),
        (lambda: _run_sort(compiled=True), TypeError),
        (_sort_app_positional, TypeError),
        (_jobspec_with_plan, TypeError),
        (_configure_shards, TypeError),
        (_cli("sort", "--shards", "2"), SystemExit),
        (_cli("sort", "--compiled"), SystemExit),
        (_cli("export", "--outdir", "d"), SystemExit),
    ],
    ids=["run-shards", "run-compiled", "app-positional", "jobspec-plan",
         "configure-shards", "cli-sort-shards", "cli-sort-compiled",
         "cli-export-outdir"],
)
def test_removed_spellings_fail_loudly(call, error):
    """Each pre-plan spelling gets the error Python or argparse raises
    for any unknown argument — no shim, no warning."""
    with pytest.raises(error) as excinfo:
        call()
    if error is SystemExit:
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# RunnerOptions.plan
# ----------------------------------------------------------------------
def test_runner_using_accepts_plan(tmp_path):
    from repro.runner import configure, using
    from repro.runner.sweep import get_options

    with using(cache_dir=str(tmp_path), plan=ExecutionPlan(shards=2)):
        assert get_options().plan == ExecutionPlan(shards=2)
    assert get_options().plan == ExecutionPlan()
    with pytest.raises(PlanError, match="non-negative"):
        configure(plan=ExecutionPlan(shards=-1))
    assert get_options().plan == ExecutionPlan()


# ----------------------------------------------------------------------
# CLI: --plan
# ----------------------------------------------------------------------
def test_cli_plan_flag_runs_and_prints_window_summary(capsys):
    from repro.__main__ import main

    main(["sort", "--pes", "8", "--size", "128", "--threads", "2",
          "--plan", "shards=2"])
    out = capsys.readouterr().out
    assert "OK" in out
    assert "windows: shards=2" in out


def test_cli_compiled_plan_prints_cohort_diagnostics(capsys):
    from repro.__main__ import main

    main(["sort", "--pes", "4", "--size", "16", "--threads", "2",
          "--plan", "compiled"])
    out = capsys.readouterr().out
    assert "OK" in out
    # Native apps run interpreted under the compiled plan.
    assert "cohorts: occupancy 0.00" in out


def test_cli_help_advertises_plan():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["sort", "--help"])


# ----------------------------------------------------------------------
# SHARD-category observability
# ----------------------------------------------------------------------
def _sharded_events(categories):
    bus = EventBus()
    recorder = RingRecorder(bus, capacity=500_000, categories=categories)
    report = repro.run(
        "sort", n=128, n_pes=8, h=2, plan=ExecutionPlan(shards=2), obs=bus
    )
    return report, recorder.events


def test_default_subscriptions_exclude_shard_windows():
    _, events = _sharded_events(None)
    assert not any(type(ev) is ShardWindow for ev in events)


def test_opt_in_subscription_sees_one_event_per_shard_window():
    report, events = _sharded_events([Category.SHARD])
    windows = [ev for ev in events if type(ev) is ShardWindow]
    assert windows and len(events) == len(windows)
    # One event per (shard, window), matching the report's accounting.
    per_shard = report.windows["per_shard"]
    assert len(windows) == sum(per["windows"] for per in per_shard)
    assert {ev.shard for ev in windows} == {0, 1}
    assert all(ev.end >= ev.t and ev.category is Category.SHARD for ev in windows)


def test_perfetto_renders_the_shard_track():
    _, events = _sharded_events([Category.SHARD, Category.PACKET])
    trace = to_perfetto(events, n_pes=8)
    assert validate_perfetto(trace) == []
    names = {
        ev["args"]["name"]
        for ev in trace["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "process_name"
    }
    assert "shards" in names
    slices = [ev for ev in trace["traceEvents"] if ev.get("cat") == "shard"]
    assert slices
    assert all(ev["ph"] == "X" and ev["dur"] >= 0 for ev in slices)
    assert {ev["args"]["shard"] for ev in slices} == {0, 1}


def test_shard_events_do_not_disturb_default_perfetto_identity():
    """Default recordings (no SHARD opt-in) stay byte-identical across
    K — the new track is invisible unless asked for."""
    exports = []
    for k in (1, 2):
        bus = EventBus()
        recorder = RingRecorder(bus, capacity=500_000)
        repro.run("fft", n=128, n_pes=8, h=2, plan=ExecutionPlan(shards=k), obs=bus)
        exports.append(
            json.dumps(to_perfetto(recorder.events, n_pes=8), sort_keys=True)
        )
    assert exports[0] == exports[1]
