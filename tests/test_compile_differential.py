"""Differential oracle for the cohort compiler.

The compiled path's bar is byte identity: metrics, ``events_fired``,
serialized RunRecords, and the Perfetto export must all match the
interpreted run exactly — the compiler changes how generators are
driven, never what the machine does.  These tests sweep the fig6/fig7
shape grid (tiny scale) for the EM-C workload, which compiles, and the
native apps, which ``compiled=True`` must leave on the interpreter
untouched; exercise the harness's shrinking and path diff; and cover
the CLI seams: ``trace --plan compiled`` and the ``apps`` listing.
"""

from __future__ import annotations

import pytest

from repro.compile.differential import (
    CompileDifferentialHarness,
    comparable_compile_report,
    diff_paths,
)

#: The fig6/fig7 grid at test scale: every paper workload (native and
#: EM-C) on small machines across the thread sweep's low end.
FIG_GRID = [
    (app, n_pes, npp, h)
    for app in ("sort", "fft", "transpose", "emc-sort")
    for n_pes in (4, 8)
    for npp in (8, 16)
    for h in (1, 2, 4)
]


@pytest.mark.parametrize(
    "app,n_pes,npp,h", FIG_GRID, ids=[f"{a}-P{p}-n{n}-h{h}" for a, p, n, h in FIG_GRID]
)
def test_fig_grid_byte_identical(app, n_pes, npp, h):
    harness = CompileDifferentialHarness(app, seed=0)
    result = harness.check(n_pes=n_pes, n=n_pes * npp, h=h)
    assert result.identical, result.describe()
    # events_fired is part of the comparison: structure, not just metrics.
    assert result.interpreted.events_fired == result.compiled.events_fired


def test_emc_front_end_fully_compiled():
    """The EM-C workload compiles every thread (codegen tier), so the
    occupancy is 1.0 and the compiled path actually ran compiled."""
    harness = CompileDifferentialHarness("emc-sort", seed=0)
    result = harness.check(n_pes=8, n=8 * 16, h=4)
    cohort = result.compiled.cohort
    assert cohort["occupancy"] == 1.0
    assert cohort["emc_codegen_threads"] > 0


def test_harness_shrink_returns_identical_for_good_shape():
    harness = CompileDifferentialHarness("sort", seed=0)
    result = harness.shrink(dict(n_pes=4, n=32, h=1))
    assert result.identical


def test_diff_paths_names_leaf_differences():
    a = {"cycles": 10, "network": {"hops": [1, 2], "peak": 3}}
    b = {"cycles": 11, "network": {"hops": [1, 5], "peak": 3}}
    assert diff_paths(a, b) == ["cycles", "network.hops[1]"]
    assert diff_paths(a, a) == []
    assert diff_paths({"x": 1}, {"y": 1}) == ["x", "y"]


def test_cli_compiled_flag(capsys, tmp_path):
    from repro.__main__ import main

    main(["trace", "emc-sort", "--pes", "4", "--size", "16", "--threads", "1",
          "--plan", "compiled", "--out", str(tmp_path / "emc.perfetto.json")])
    out = capsys.readouterr().out
    assert "OK" in out
    assert "cohorts: occupancy 1.00" in out


def test_cli_apps_lists_registry(capsys):
    from repro.__main__ import main

    main(["apps"])
    out = capsys.readouterr().out
    for name in ("sort", "emc-sort", "fft", "transpose"):
        assert name in out
    assert "n_pes, n, h" in out  # the unified signature


def test_cli_apps_json(capsys):
    import json

    from repro.__main__ import main

    main(["apps", "--json"])
    entries = json.loads(capsys.readouterr().out)
    by_name = {e["name"]: e for e in entries}
    assert "bitonic" in by_name["sort"]["aliases"]
    assert by_name["fft"]["signature"][:3] == ["n_pes", "n", "h"]
    assert set(by_name["sort"]) == {"name", "aliases", "signature"}


def test_comparable_report_drops_only_cohort():
    import repro

    report = repro.run("sort", n=32, n_pes=4, h=1,
                       plan=repro.ExecutionPlan(compiled=True))
    comparable = comparable_compile_report(report)
    assert "cohort" not in comparable
    assert "events_fired" in comparable
