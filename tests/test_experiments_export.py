"""The export: CSVs and ``RESULTS_tiny.json`` from one figure batch."""

import csv
import json

import pytest

from repro.errors import ConfigError
from repro.experiments import default_scale, results
from repro.experiments.figures import FIGURES, PANELS, panel, panel_specs
from repro.runner import Runner

THREADS = (1, 2, 4)


class SpyRunner(Runner):
    """A runner that records every batch it is asked for."""

    def __post_init__(self):
        super().__post_init__()
        self.batches = []

    def run(self, specs):
        self.batches.append(list(specs))
        return super().run(specs)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """A tiny export on a short thread tuple, with every batch the
    export asked its runner for."""
    outdir = tmp_path_factory.mktemp("csv")
    runner = SpyRunner()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_SCALE", "tiny")
        mp.setattr(results, "THREAD_SWEEP", THREADS)
        paths, _ = results.export_results(outdir, default_scale(), runner)
    return outdir, paths, runner.batches


def _read(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


def test_writes_one_csv_per_figure_plus_combined(exported):
    outdir, paths, _ = exported
    names = sorted(p.name for p in paths if p.suffix == ".csv")
    assert names == ["all_figures.csv", "fig6.csv", "fig7.csv", "fig8.csv", "fig9.csv"]


def test_every_figure_job_runs_in_one_batch(exported):
    """One batch carries the union of every panel's jobs, and no other
    batch (the ablations') carries any of them."""
    _, _, batches = exported
    scale = default_scale()

    def specs(figures):
        return {
            spec
            for fig in figures
            for letter in PANELS
            for spec in panel_specs(panel(fig, letter, scale), THREADS)
        }

    [batch] = [b for b in batches if specs(FIGURES) & set(b)]
    # Fig. 7 redraws Fig. 6's runs, and at tiny scale every Fig. 8/9
    # sweep is also a Fig. 6 curve, so the union is Fig. 6's jobs.
    assert set(batch) == specs(FIGURES) == specs(["fig6"])
    # A1-A4 and A6 each ask for one batch of their own.
    assert len(batches) == 6


def test_csv_values_are_the_results_series(exported):
    """Every CSV value is the matching value of RESULTS_tiny.json."""
    outdir, _, _ = exported
    figures = json.loads((outdir / "RESULTS_tiny.json").read_text())["figures"]
    expected = {}
    for fig, panels in figures.items():
        for letter, entry in panels.items():
            if "npp" in entry:
                for h, values in entry["series"].items():
                    for name, value in values.items():
                        expected[fig, letter, str(entry["npp"]), h, name] = value
            else:
                for npp, curve in entry["series"].items():
                    for h, value in curve.items():
                        expected[fig, letter, npp, h, None] = value
    seen = {}
    for fig in FIGURES:
        for r in _read(outdir / f"{fig}.csv"):
            name = r["metric"].split("_", 1)[1] if fig in ("fig8", "fig9") else None
            seen[fig, r["panel"], r["npp"], r["threads"], name] = float(r["value"])
    assert seen == expected


def test_fig6_rows_shape(exported):
    outdir, _, _ = exported
    rows = _read(outdir / "fig6.csv")
    assert rows, "no fig6 rows"
    first = rows[0]
    assert set(first) == {"figure", "panel", "app", "n_pes", "npp", "threads", "metric", "value"}
    assert all(r["figure"] == "fig6" for r in rows)
    assert all(r["metric"] == "comm_seconds" for r in rows)
    assert {r["panel"] for r in rows} == {"a", "b", "c", "d"}


def test_fig7_baseline_zero(exported):
    outdir, _, _ = exported
    rows = _read(outdir / "fig7.csv")
    ones = [float(r["value"]) for r in rows if r["threads"] == "1"]
    assert ones and all(v == 0.0 for v in ones)


def test_fig8_percentages_sum(exported):
    outdir, _, _ = exported
    rows = _read(outdir / "fig8.csv")
    by_key = {}
    for r in rows:
        key = (r["panel"], r["threads"])
        by_key.setdefault(key, 0.0)
        by_key[key] += float(r["value"])
    for key, total in by_key.items():
        assert abs(total - 100.0) < 1e-6, key


def test_combined_is_concatenation(exported):
    outdir, _, _ = exported
    combined = _read(outdir / "all_figures.csv")
    parts = sum(len(_read(outdir / f"{f}.csv")) for f in ("fig6", "fig7", "fig8", "fig9"))
    assert len(combined) == parts


def test_unknown_figure_rejected():
    scale = default_scale()
    with pytest.raises(ConfigError, match="unknown figure"):
        panel("fig42", "a", scale)
    with pytest.raises(ConfigError, match="has panels"):
        panel("fig6", "e", scale)
