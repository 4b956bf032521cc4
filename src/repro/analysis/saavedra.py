"""The Saavedra-Barrera analytic model of multithreading.

Reference [16] of the paper: R. Saavedra-Barrera, D. Culler, T. von
Eicken, *Analysis of Multithreaded Architectures for Parallel
Computing*, SPAA 1990.  A processor runs threads with deterministic run
length **R** (cycles between remote references), remote latency **L**,
and context-switch cost **C**.  With N threads:

* **Linear region** (N below saturation): the processor still idles
  between bursts; efficiency grows linearly::

      E(N) = N · R / (R + C + L)

* **Saturation region** (enough threads to cover the latency): the
  processor always has a thread to run; efficiency is capped by switch
  overhead::

      E_sat = R / (R + C)

* The **transition** happens around  N_d = 1 + (L + C) / (R + C)  — in
  stochastic variants the knee is smooth; this deterministic form is
  what the EM-X paper's "two to four threads for a 20–40 cycle latency
  at run length 12" arithmetic uses.

The model also predicts the *unmasked communication time* per reference,
``max(0, L − (N−1)(R + C))``, which is what Fig. 6 plots (divided by the
reference rate).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["Region", "SaavedraModel"]


class Region(enum.Enum):
    """Operating regions of a multithreaded processor."""

    LINEAR = "linear"
    TRANSITION = "transition"
    SATURATION = "saturation"


@dataclass(frozen=True)
class SaavedraModel:
    """Deterministic Saavedra-Barrera model with parameters R, L, C."""

    run_length: int  # R
    latency: int  # L
    switch_cost: int  # C

    def __post_init__(self) -> None:
        if self.run_length < 1:
            raise ConfigError(f"run length must be >= 1, got {self.run_length}")
        if self.latency < 0:
            raise ConfigError(f"latency must be >= 0, got {self.latency}")
        if self.switch_cost < 0:
            raise ConfigError(f"switch cost must be >= 0, got {self.switch_cost}")

    # ------------------------------------------------------------------
    @property
    def saturation_efficiency(self) -> float:
        """E_sat = R / (R + C): the switch-overhead-limited ceiling."""
        return self.run_length / (self.run_length + self.switch_cost)

    @property
    def saturation_threads(self) -> float:
        """N_d = 1 + (L + C) / (R + C): threads needed to hide L."""
        return 1.0 + (self.latency + self.switch_cost) / (self.run_length + self.switch_cost)

    def efficiency(self, n_threads: int) -> float:
        """Processor efficiency (useful cycles / total) with N threads."""
        if n_threads < 1:
            raise ConfigError(f"need at least one thread, got {n_threads}")
        linear = (
            n_threads
            * self.run_length
            / (self.run_length + self.switch_cost + self.latency)
        )
        return min(linear, self.saturation_efficiency)

    def region(self, n_threads: int) -> Region:
        """Which operating region N threads land in."""
        n_d = self.saturation_threads
        if n_threads < n_d - 0.5:
            return Region.LINEAR
        if n_threads <= n_d + 0.5:
            return Region.TRANSITION
        return Region.SATURATION

    # ------------------------------------------------------------------
    def unmasked_latency(self, n_threads: int) -> float:
        """Idle cycles per remote reference that N threads fail to hide."""
        if n_threads < 1:
            raise ConfigError(f"need at least one thread, got {n_threads}")
        hidden = (n_threads - 1) * (self.run_length + self.switch_cost)
        return max(0.0, float(self.latency - hidden))

    def comm_time_fraction(self, n_threads: int) -> float:
        """Unmasked communication as a fraction of the one-thread value."""
        base = self.unmasked_latency(1)
        if base == 0:
            return 0.0
        return self.unmasked_latency(n_threads) / base

    def overlap_efficiency(self, n_threads: int) -> float:
        """The paper's Fig. 7 metric, predicted analytically."""
        return 1.0 - self.comm_time_fraction(n_threads)

    @classmethod
    def for_sorting(cls, latency: int = 30) -> "SaavedraModel":
        """The paper's sorting parameters: run length 12, C ≈ 7."""
        return cls(run_length=12, latency=latency, switch_cost=7)

    @classmethod
    def for_fft(cls, latency: int = 30) -> "SaavedraModel":
        """The paper's FFT parameters: run length of hundreds of cycles."""
        return cls(run_length=240, latency=latency, switch_cost=7)
