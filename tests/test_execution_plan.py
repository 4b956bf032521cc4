"""ExecutionPlan: the one bundle of execution-strategy knobs.

Covers the frozen dataclass itself (parse/describe/validate), the
``plan=`` plumbing through ``repro.run``, ``JobSpec``, the runner
options and the CLI, the legacy keyword shims (one DeprecationWarning,
same behaviour, same cache keys), the typed errors for removed modes,
and the SHARD-category observability the sharded engine emits.
"""

from __future__ import annotations

import json
import warnings

import pytest

import repro
from repro import ExecutionPlan
from repro.errors import ConfigError, PlanError
from repro.metrics.serialize import report_to_dict
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


# ----------------------------------------------------------------------
# repro.run(plan=) and the legacy keyword shim
# ----------------------------------------------------------------------
def test_run_plan_matches_legacy_shards_keyword():
    planned = repro.run("sort", n=128, n_pes=8, h=2, plan=ExecutionPlan(shards=2))
    with pytest.warns(DeprecationWarning, match="shards=.*deprecated"):
        legacy = repro.run("sort", n=128, n_pes=8, h=2, shards=2)
    assert report_to_dict(planned) == report_to_dict(legacy)


def test_run_plan_compiled_matches_legacy_compiled_keyword():
    planned = repro.run("sort", n=32, n_pes=4, h=1, plan=ExecutionPlan(compiled=True))
    with pytest.warns(DeprecationWarning, match="compiled=.*deprecated"):
        legacy = repro.run("sort", n=32, n_pes=4, h=1, compiled=True)
    assert planned.cohort is not None
    assert report_to_dict(planned) == report_to_dict(legacy)


def test_run_rejects_plan_plus_legacy_keywords():
    with pytest.raises(PlanError, match="not both"):
        repro.run(
            "sort", n=32, n_pes=4, h=1, plan=ExecutionPlan(shards=2), shards=2
        )


# ----------------------------------------------------------------------
# JobSpec and RunnerOptions integration
# ----------------------------------------------------------------------
def test_jobspec_plan_is_the_same_spec_as_legacy_fields():
    from repro.runner import JobSpec

    planned = JobSpec(
        app="sort", n_pes=8, npp=16, h=2, plan=ExecutionPlan(shards=2)
    )
    legacy = JobSpec(app="sort", n_pes=8, npp=16, h=2, shards=2)
    assert planned == legacy
    assert planned.key() == legacy.key()
    assert planned.describe() == legacy.describe()
    assert planned.execution_plan == ExecutionPlan(shards=2)


def test_jobspec_rejects_plan_plus_legacy_fields():
    from repro.runner import JobSpec

    with pytest.raises(PlanError, match="not both"):
        JobSpec(app="sort", n_pes=8, npp=16, h=2, shards=2,
                plan=ExecutionPlan(shards=2))


def test_jobspec_replace_does_not_resurrect_the_plan():
    from dataclasses import replace

    from repro.runner import JobSpec

    spec = JobSpec(app="sort", n_pes=8, npp=16, h=2, plan=ExecutionPlan(shards=2))
    bumped = replace(spec, h=4)
    assert bumped.shards == 2 and bumped.h == 4


def test_runner_using_accepts_plan(tmp_path):
    from repro.runner import using
    from repro.runner.sweep import get_options

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with using(cache_dir=str(tmp_path), plan=ExecutionPlan(shards=2)):
            opts = get_options()
            assert opts.shards == 2
            assert opts.plan == ExecutionPlan(shards=2)


def test_runner_legacy_fields_deprecated(tmp_path):
    from repro.runner import using

    with pytest.warns(DeprecationWarning, match="deprecated"):
        with using(cache_dir=str(tmp_path), shards=2):
            pass


# ----------------------------------------------------------------------
# CLI: --plan, legacy flag shims
# ----------------------------------------------------------------------
def test_cli_plan_flag_runs_and_prints_window_summary(capsys):
    from repro.__main__ import main

    main(["sort", "--pes", "8", "--size", "128", "--threads", "2",
          "--plan", "shards=2"])
    out = capsys.readouterr().out
    assert "OK" in out
    assert "window protocol: adaptive" in out


def test_cli_compiled_plan_prints_cohort_diagnostics(capsys):
    from repro.__main__ import main

    main(["sort", "--pes", "4", "--size", "16", "--threads", "2",
          "--plan", "compiled"])
    out = capsys.readouterr().out
    assert "OK" in out
    # Native apps run interpreted under the compiled plan.
    assert "cohorts: occupancy 0.00" in out


def test_cli_plan_conflicts_with_legacy_flags():
    from repro.__main__ import main

    with pytest.raises(PlanError, match="--plan cannot be combined"):
        main(["sort", "--pes", "8", "--size", "128", "--threads", "2",
              "--plan", "shards=2", "--shards", "2"])


def test_cli_legacy_shards_flag_still_works_with_warning(capsys):
    from repro.__main__ import main

    with pytest.warns(DeprecationWarning, match="--shards is deprecated"):
        main(["sort", "--pes", "8", "--size", "128", "--threads", "2",
              "--shards", "2"])
    assert "OK" in capsys.readouterr().out


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
