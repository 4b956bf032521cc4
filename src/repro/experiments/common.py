"""Shared experiment machinery: scales, cached runs, thread sweeps.

The paper sweeps h = 1..16 threads on P = 16 and P = 64 processors over
five data sizes spanning a ×16 range (128K..2M elements at P=16,
512K..8M at P=64).  Pure-Python event simulation cannot reach 8M
elements, so the ``REPRO_SCALE`` environment variable selects a size
ladder that keeps the *per-processor* workload sweep shape (five sizes,
×16 range) at a tractable absolute scale:

=========  =======================  =========================
scale      per-PE sizes             intended use
=========  =======================  =========================
``tiny``   8, 16, 32                unit tests / smoke runs
``small``  16 … 256 (default)       ``RESULTS_small.json``
``large``  64 … 1024                overnight fidelity runs
=========  =======================  =========================

Execution is delegated to the :mod:`repro.runner` engine: every run is
memoised per process (so Fig. 7 reuses the Fig. 6 sweep and Fig. 8/9
reuse each other's runs), persisted to an on-disk result cache, and —
when the runner is configured with ``jobs > 1`` — fanned across a
process pool.  ``run_app`` / ``sweep_threads`` keep their historical
signatures; they are thin shims over the engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Literal

from ..errors import ConfigError
from ..metrics.counters import SwitchKind
from ..runner.jobs import JobSpec
from ..runner.sweep import clear_memo, run_job, sweep_threads

__all__ = [
    "THREAD_SWEEP",
    "ExperimentScale",
    "RunRecord",
    "default_scale",
    "run_app",
    "sweep_threads",
    "clear_cache",
]

#: The thread counts every figure sweeps (the paper's x-axis, 1..16).
THREAD_SWEEP: tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12, 16)

AppName = Literal["sort", "fft"]


@dataclass(frozen=True)
class ExperimentScale:
    """A size ladder standing in for the paper's 128K–8M sweeps."""

    name: str
    sizes_per_pe: tuple[int, ...]
    p_small: int = 16
    p_large: int = 64
    #: Subset of sizes swept on the large machine (P=64 is ~4× the event
    #: cost of P=16, so its Fig. 6 panels use fewer curves by default).
    large_machine_sizes: tuple[int, ...] | None = None

    @property
    def small_size(self) -> int:
        """The per-PE size playing the paper's '512K' (small) role."""
        return self.sizes_per_pe[0]

    @property
    def large_size(self) -> int:
        """The per-PE size playing the paper's '8M' (large) role."""
        return self.sizes_per_pe[-1]

    def sizes_for(self, n_pes: int) -> tuple[int, ...]:
        """The per-PE sizes swept on a machine of ``n_pes``."""
        if n_pes >= self.p_large and self.large_machine_sizes:
            return self.large_machine_sizes
        return self.sizes_per_pe


_SCALES = {
    "tiny": ExperimentScale("tiny", (8, 16, 32), p_small=8, p_large=16),
    "small": ExperimentScale(
        "small", (16, 32, 64, 128, 256), large_machine_sizes=(16, 64, 256)
    ),
    "large": ExperimentScale(
        "large", (64, 128, 256, 512, 1024), large_machine_sizes=(64, 256, 1024)
    ),
}


def default_scale() -> ExperimentScale:
    """The ladder selected by ``REPRO_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_SCALE", "small")
    try:
        return _SCALES[name]
    except KeyError:
        raise ConfigError(
            f"REPRO_SCALE={name!r}; valid scales are {sorted(_SCALES)}"
        ) from None


@dataclass(frozen=True)
class RunRecord:
    """The per-run numbers every figure consumes."""

    app: str
    n_pes: int
    npp: int
    h: int
    runtime_seconds: float
    comm_seconds: float  # Fig. 6 definition: idle + sync stalls
    comm_idle_seconds: float
    breakdown_pct: tuple[tuple[str, float], ...]
    switches_per_pe: tuple[tuple[str, float], ...]
    verified: bool
    events: int

    def switches(self, kind: SwitchKind) -> float:
        """Average per-PE switch count of one kind."""
        return dict(self.switches_per_pe)[kind.value]

    def breakdown(self) -> dict[str, float]:
        """Percentage breakdown (computation/overhead/communication/switching)."""
        return dict(self.breakdown_pct)


def clear_cache(disk: bool = False) -> None:
    """Drop all memoised runs (tests use this to force fresh sweeps).

    With ``disk=True`` the on-disk result cache (at the runner's active
    cache root) is purged as well, so the next sweep re-executes every
    simulation instead of rehydrating from disk.
    """
    clear_memo()
    if disk:
        from ..runner.cache import ResultCache
        from ..runner.sweep import get_options

        ResultCache(get_options().cache_dir).purge()


def run_app(
    app: AppName,
    n_pes: int,
    npp: int,
    h: int,
    *,
    em4_mode: bool = False,
    network_model: str = "detailed",
    priority_replies: bool = False,
    seed: int = 0,
) -> RunRecord:
    """Run one workload configuration (memoised per process).

    Delegates to the execution engine: memo first, then the on-disk
    cache, then an in-process simulation.
    """
    spec = JobSpec(
        app=app,
        n_pes=n_pes,
        npp=npp,
        h=h,
        em4_mode=em4_mode,
        network_model=network_model,
        priority_replies=priority_replies,
        seed=seed,
    )
    return run_job(spec)
