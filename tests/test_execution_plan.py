"""ExecutionPlan: the one bundle of execution-strategy knobs.

Covers the frozen dataclass itself (validate), the CLI's
``trace --plan compiled``, and the errors Python and argparse raise for
removed modes and spellings.
"""

from __future__ import annotations

import pytest

import repro
from repro import ExecutionPlan
from repro.errors import PlanError


# ----------------------------------------------------------------------
# The dataclass: validate
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


def test_validate_rejects_bad_field_types():
    with pytest.raises(PlanError, match="compiled must be a bool"):
        ExecutionPlan(compiled="yes").validate()  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Removed modes fail loudly, with the existing typed errors
# ----------------------------------------------------------------------
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


def _spec_dict_shards():
    from repro.runner import JobSpec

    # A spec dict (the goldens' and cache entries' ``spec``) loads as
    # JobSpec keyword arguments, so a removed field is Python's TypeError.
    return JobSpec(**{"app": "sort", "n_pes": 2, "npp": 8, "h": 1, "shards": 2})


def _jobspec_compiled():
    from repro.runner import JobSpec

    return JobSpec(app="sort", n_pes=8, npp=16, h=2, compiled=True)


def _runner(**overrides):
    from repro.runner import Runner

    return lambda: Runner(**overrides)


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
        (_runner(shards=2), TypeError),
        (lambda: ExecutionPlan(shards=2), TypeError),
        (_jobspec_shards, TypeError),
        (_spec_dict_shards, TypeError),
        (_cli("sort", "--shards", "2"), SystemExit),
        (_cli("sort", "--compiled"), SystemExit),
        (_cli("export", "--outdir", "d"), SystemExit),
        (_cli("trace", "sort", "--plan", "shards=2"), SystemExit),
        (_machine_config_trace, TypeError),
        (_connect, AttributeError),
        (_cli("serve"), SystemExit),
        (_cli("submit"), SystemExit),
        (_cli("svc-status"), SystemExit),
        (_jobspec_compiled, TypeError),
        (_runner(plan=ExecutionPlan(compiled=True)), TypeError),
        (_runner(timeout=5), TypeError),
        (_cli("sort", "--plan", "compiled"), SystemExit),
        (_cli("fig6", "a", "--plan", "compiled"), SystemExit),
        (_cli("fig6", "a", "--trace-dir", "d"), SystemExit),
    ],
    ids=["run-shards", "run-compiled", "app-positional", "jobspec-plan",
         "runner-shards", "plan-shards", "jobspec-shards",
         "spec-dict-shards", "cli-sort-shards", "cli-sort-compiled",
         "cli-export-outdir", "cli-plan-shards", "config-trace",
         "repro-connect", "cli-serve", "cli-submit", "cli-svc-status",
         "jobspec-compiled", "runner-plan", "runner-timeout",
         "cli-sort-plan", "cli-fig6-plan", "cli-fig6-trace-dir"],
)
def test_removed_spellings_fail_loudly(call, error):
    """Each removed spelling gets the error Python or argparse raises for
    any unknown argument, field, attribute, command or choice — no shim,
    no warning."""
    with pytest.raises(error) as excinfo:
        call()
    if error is SystemExit:
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# CLI: trace --plan
# ----------------------------------------------------------------------
def test_cli_compiled_plan_prints_cohort_diagnostics(capsys, tmp_path):
    from repro.__main__ import main

    main(["trace", "sort", "--pes", "4", "--size", "16", "--threads", "2",
          "--plan", "compiled", "--out", str(tmp_path / "sort.perfetto.json")])
    out = capsys.readouterr().out
    assert "OK" in out
    # Native apps run interpreted under the compiled plan.
    assert "cohorts: occupancy 0.00" in out


def test_cli_help_advertises_plan(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["trace", "--help"])
    assert "--plan {compiled}" in capsys.readouterr().out
