"""The evaluation's verdicts and the committed ``RESULTS_small.json``."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import MachineConfig
from repro.experiments import THREAD_SWEEP
from repro.experiments.results import CHECKS
from repro.runner import machine_fingerprint

RESULTS_SMALL = pathlib.Path(__file__).resolve().parents[1] / "RESULTS_small.json"


def test_committed_results_match_the_code():
    """The committed evaluation is current, complete and all passing.

    Runs no simulation.  A timing or policy change moves the default
    machine's fingerprint, so the file must be regenerated with
    ``REPRO_SCALE=small python -m repro export --jobs 2`` in the same
    change.
    """
    results = json.loads(RESULTS_SMALL.read_text())
    assert results["machine_fingerprint"] == machine_fingerprint(MachineConfig()), (
        "RESULTS_small.json was made by another machine model; regenerate it"
    )
    failed = {v["id"]: v["problems"] for v in results["verdicts"] if not v["passed"]}
    assert failed == {}
    assert [v["id"] for v in results["verdicts"]] == list(CHECKS)
    assert (results["scale"], results["threads"]) == ("small", list(THREAD_SWEEP))


def _fig7(small_machine: bool, fft_curve: dict[int, float]) -> dict:
    sort_panel, fft_panel = ("a", "c") if small_machine else ("b", "d")
    sort_curve = {1: 0.0, 2: 0.5, 4: 0.6, 16: 0.1}
    return {"figures": {"fig7": {
        sort_panel: {"series": {8: {}, 32: sort_curve}},
        fft_panel: {"series": {8: {}, 32: {1: 0.0, 3: 0.0, 16: 0.99, **fft_curve}}},
    }}}


@pytest.mark.parametrize(
    "vid,evidence,passed",
    [
        # The FFT headline is strict: above 0.95 on the small machine,
        # above 0.85 on the large one, judged at the largest size.
        ("fig7.ac.headline", _fig7(True, {2: 0.951, 4: 0.5}), True),
        ("fig7.ac.headline", _fig7(True, {2: 0.95, 4: 0.5}), False),
        ("fig7.bd.headline", _fig7(False, {2: 0.5, 4: 0.851}), True),
        ("fig7.bd.headline", _fig7(False, {2: 0.5, 4: 0.85}), False),
        # The FFT floor: 0.90 on the small machine, 0.80 on the large.
        ("fig7.ac.bands", _fig7(True, {2: 0.9, 4: 0.9}), True),
        ("fig7.ac.bands", _fig7(True, {2: 0.89, 4: 0.89}), False),
        ("fig7.bd.bands", _fig7(False, {2: 0.8, 4: 0.8}), True),
        ("fig7.bd.bands", _fig7(False, {2: 0.79, 4: 0.79}), False),
        ("A3.network_ratio",
         {"ablations": {"A3": {"rows": [{"app": "sort", "ratio": 1.0999}]}}}, True),
        ("A3.network_ratio",
         {"ablations": {"A3": {"rows": [{"app": "sort", "ratio": 1.1}]}}}, False),
        ("A6.gap_widens",
         {"ablations": {"A6": {"rows": [{"slowdown": 1.2}, {"slowdown": 1.5}]}}}, True),
        ("A6.gap_widens",
         {"ablations": {"A6": {"rows": [{"slowdown": 1.5}, {"slowdown": 1.5}]}}}, False),
        ("mu2.cycles_per_packet",
         {"probes": {"mu2": {"rows": [{"cycles_per_packet": 1.0000005}]}}}, True),
        ("mu2.cycles_per_packet",
         {"probes": {"mu2": {"rows": [{"cycles_per_packet": 1.01}]}}}, False),
    ],
)
def test_verdict_thresholds(vid, evidence, passed):
    problems = CHECKS[vid](evidence)
    assert (problems == []) is passed, problems
