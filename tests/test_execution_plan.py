"""ExecutionPlan: the one bundle of execution-strategy knobs.

Covers the frozen dataclass itself (parse/describe/validate), the
``plan=`` plumbing through ``repro.run``, the runner options and the
CLI, and the errors Python, argparse and the plan parser raise for
removed modes and spellings.
"""

from __future__ import annotations

import pytest

import repro
from repro import ExecutionPlan
from repro.errors import ConfigError, PlanError


# ----------------------------------------------------------------------
# The dataclass: parse, describe, validate
# ----------------------------------------------------------------------
def test_default_plan_is_sequential_detailed_interpreted():
    plan = ExecutionPlan()
    assert plan.compiled is False
    assert plan.validate() is plan


def test_plan_is_frozen_and_hashable():
    plan = ExecutionPlan(compiled=True)
    with pytest.raises(Exception):
        plan.compiled = False  # type: ignore[misc]
    assert hash(plan) == hash(ExecutionPlan(compiled=True))
    assert plan != ExecutionPlan()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", ExecutionPlan()),
        ("compiled", ExecutionPlan(compiled=True)),
        ("compiled=false", ExecutionPlan()),
    ],
)
def test_parse_accepts_cli_spellings(text, expected):
    assert ExecutionPlan.parse(text) == expected


@pytest.mark.parametrize(
    "text,match",
    [
        ("shards=4", "unknown plan key"),
        ("turbo", "malformed plan token"),
        ("speed=11", "unknown plan key"),
        ("fidelity=hybrid", "unknown plan key"),
        ("compiled=maybe", "compiled must be a boolean"),
        ("compiled,compiled=false", "'compiled' given more than once"),
    ],
)
def test_parse_rejects_malformed_plans(text, match):
    with pytest.raises(PlanError, match=match):
        ExecutionPlan.parse(text)


# The ids keep the row numbers of the earlier four-plan table; its
# shard rows (plan1, plan3) went with the shards field.
@pytest.mark.parametrize(
    "plan",
    [
        pytest.param(ExecutionPlan(), id="plan0"),
        pytest.param(ExecutionPlan(compiled=True), id="plan2"),
    ],
)
def test_describe_parse_round_trip(plan):
    assert ExecutionPlan.parse(plan.describe()) == plan


def test_validate_rejects_bad_field_types():
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

    return JobSpec(app="sort", n_pes=8, npp=16, h=2, plan=ExecutionPlan())


def _jobspec_shards():
    from repro.runner import JobSpec

    return JobSpec(app="sort", n_pes=8, npp=16, h=2, shards=2)


def _spec_from_dict_shards():
    from repro.runner.jobs import spec_from_dict

    return spec_from_dict({"app": "sort", "n_pes": 2, "npp": 8, "h": 1, "shards": 2})


def _configure_shards():
    from repro.runner import configure

    return configure(shards=2)


def _machine_config_trace():
    return repro.MachineConfig(trace=True)


def _connect():
    return getattr(repro, "connect")


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
        (lambda: ExecutionPlan(shards=2), TypeError),
        (_jobspec_shards, TypeError),
        (_spec_from_dict_shards, ConfigError),
        (_cli("sort", "--shards", "2"), SystemExit),
        (_cli("sort", "--compiled"), SystemExit),
        (_cli("export", "--outdir", "d"), SystemExit),
        (_cli("sort", "--plan", "shards=2"), PlanError),
        (_machine_config_trace, TypeError),
        (_connect, AttributeError),
        (_cli("serve"), SystemExit),
        (_cli("submit"), SystemExit),
        (_cli("svc-status"), SystemExit),
    ],
    ids=["run-shards", "run-compiled", "app-positional", "jobspec-plan",
         "configure-shards", "plan-shards", "jobspec-shards",
         "spec-dict-shards", "cli-sort-shards", "cli-sort-compiled",
         "cli-export-outdir", "cli-plan-shards", "config-trace",
         "repro-connect", "cli-serve", "cli-submit", "cli-svc-status"],
)
def test_removed_spellings_fail_loudly(call, error):
    """Each removed spelling gets the error Python, argparse, the job-spec
    decoder or the plan parser raises for any unknown argument, field,
    attribute or command — no shim, no warning."""
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

    with using(cache_dir=str(tmp_path), plan=ExecutionPlan(compiled=True)):
        assert get_options().plan == ExecutionPlan(compiled=True)
    assert get_options().plan == ExecutionPlan()
    with pytest.raises(PlanError, match="compiled must be a bool"):
        configure(plan=ExecutionPlan(compiled="yes"))  # type: ignore[arg-type]
    assert get_options().plan == ExecutionPlan()


# ----------------------------------------------------------------------
# CLI: --plan
# ----------------------------------------------------------------------
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
