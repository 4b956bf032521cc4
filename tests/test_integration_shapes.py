"""Integration: the paper's qualitative results hold on moderate runs.

These use larger machines than the unit tests (P=16, n/P=128) so the
steady-state behaviour dominates; they are the in-suite versions of the
benchmark harness's full checks.
"""

import pytest

from repro.experiments import (
    check_efficiency_bands,
    check_fig6_minimum,
    check_fig8_components,
    check_fig9_orderings,
)
from repro.experiments.figures import SWITCH_KINDS
from repro.metrics.overlap import overlap_series
from repro.runner import JobSpec, Runner, expand_sweep

P = 16
NPP = 128
THREADS = (1, 2, 4, 8, 16)
RUNNER = Runner()


def _sweep(app, npp, threads):
    """``{h: RunRecord}`` for one P=16 thread sweep."""
    return {spec.h: rec for spec, rec in RUNNER.run(expand_sweep(app, P, npp, threads)).items()}


def _one(spec):
    """One job's record."""
    return RUNNER.run([spec])[spec]


@pytest.fixture(scope="module")
def sort_sweep():
    return _sweep("sort", NPP, THREADS)


@pytest.fixture(scope="module")
def fft_sweep():
    return _sweep("fft", NPP, THREADS)


def test_fig6_sort_minimum_at_few_threads(sort_sweep):
    curve = {h: r.comm_seconds for h, r in sort_sweep.items()}
    assert check_fig6_minimum(curve) == []


def test_fig6_fft_deep_valley(fft_sweep):
    curve = {h: r.comm_seconds for h, r in fft_sweep.items()}
    assert curve[2] < 0.2 * curve[1]
    assert min(curve, key=curve.__getitem__) >= 2


def test_fig7_efficiency_bands(sort_sweep, fft_sweep):
    sort_eff = overlap_series({h: r.comm_seconds for h, r in sort_sweep.items()})
    fft_eff = overlap_series({h: r.comm_seconds for h, r in fft_sweep.items()})
    assert check_efficiency_bands(sort_eff, fft_eff) == []


def test_fft_overlaps_over_95_percent():
    """The paper's headline FFT number (needs the larger problem size —
    at small sizes the per-iteration barrier cost is proportionally
    bigger, exactly the size effect Fig. 6(d) shows for n=512K)."""
    sweep = _sweep("fft", 256, (1, 2, 4))
    eff = overlap_series({h: r.comm_seconds for h, r in sweep.items()})
    assert max(eff[h] for h in (2, 4)) > 0.95


def test_fig8_sort_components(sort_sweep):
    panel = {h: r.breakdown() for h, r in sort_sweep.items()}
    assert check_fig8_components(panel, "sort") == []


def test_fig8_fft_computation_dominates(fft_sweep):
    panel = {h: r.breakdown() for h, r in fft_sweep.items()}
    assert check_fig8_components(panel, "fft") == []
    assert panel[4]["computation"] > 80.0


def test_fig9_sort_orderings(sort_sweep):
    panel = {
        h: {k.value: r.switches(k) for k in SWITCH_KINDS} for h, r in sort_sweep.items()
    }
    assert check_fig9_orderings(panel, "sort", small_problem=False) == []


def test_fig9_fft_orderings(fft_sweep):
    panel = {
        h: {k.value: r.switches(k) for k in SWITCH_KINDS} for h, r in fft_sweep.items()
    }
    assert check_fig9_orderings(panel, "fft", small_problem=False) == []


def test_ablation_em4_read_service_hurts():
    """A1: EM-4-style EXU read servicing slows the same workload."""
    emx = _one(JobSpec("sort", P, 32, 4))
    em4 = _one(JobSpec("sort", P, 32, 4, em4_mode=True))
    assert em4.verified
    assert em4.runtime_seconds > emx.runtime_seconds


def test_ablation_network_models_agree():
    """A3: analytic vs detailed network differ by only a few percent at
    the paper's traffic levels."""
    det = _one(JobSpec("fft", P, 32, 4, network_model="detailed"))
    ana = _one(JobSpec("fft", P, 32, 4, network_model="analytic"))
    assert ana.verified
    ratio = ana.runtime_seconds / det.runtime_seconds
    # The models agree to a few percent at the paper's traffic levels;
    # reordering effects mean neither strictly bounds the other.
    assert 0.9 < ratio < 1.1


def test_ablation_saavedra_agrees_with_simulated_fft():
    """A2: the analytic model predicts FFT's near-total overlap."""
    from repro.analysis import SaavedraModel

    model = SaavedraModel.for_fft(latency=30)
    assert model.overlap_efficiency(2) == 1.0  # analytic prediction
    rec1 = _one(JobSpec("fft", P, 64, 1))
    rec2 = _one(JobSpec("fft", P, 64, 2))
    # Compare against the pure latency-masking (idle) communication —
    # the quantity the analytic model actually predicts.
    measured = 1.0 - rec2.comm_idle_seconds / rec1.comm_idle_seconds
    assert measured > 0.9
