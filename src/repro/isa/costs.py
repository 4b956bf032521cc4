"""Per-kernel cycle budgets.

:class:`KernelCosts` pins down the cycle budgets of the two application
inner loops exactly as the paper characterises them:

* bitonic sorting's remote-read loop body is **12 instructions = 12
  clocks** (quoted verbatim in §4), and each merged element costs at
  most ~10 instructions;
* the FFT loop body is **hundreds of clocks** per point ("trigonometric
  function computations and a loop to find complex roots").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["KernelCosts", "KERNEL_COSTS"]


@dataclass(frozen=True)
class KernelCosts:
    """Cycle budgets of the application inner loops (per element/point).

    Attributes
    ----------
    sort_read_loop_body:
        One iteration of the sorting read loop — issue one remote read,
        store into the merge buffer, loop control.  12 clocks (paper §4).
    sort_merge_per_element:
        Comparison + move per merged output element, ≤ 10 instructions
        (paper §4 puts it at "not more than 10 instructions excluding
        loop control"); we charge 8 work + 2 loop control.
    sort_local_sort_per_cmp:
        Per comparison/swap of the initial local sort.
    fft_read_loop_overhead:
        Address computation + loop control per point of the FFT read
        loop (two remote reads per point are charged separately as
        packet generation).
    fft_butterfly_per_point:
        The "lot of instructions" after the reads: complex multiply,
        twiddle evaluation via a root-finding loop, adds — hundreds of
        clocks (paper §4/§6: "run-length of FFT is very large with
        hundreds of clocks").
    fft_local_stage_per_point:
        Cost per point of a purely local (no-communication) FFT stage.
    """

    sort_read_loop_body: int = 12
    sort_merge_per_element: int = 10
    sort_local_sort_per_cmp: int = 4
    fft_read_loop_overhead: int = 8
    fft_butterfly_per_point: int = 240
    fft_local_stage_per_point: int = 60

    def validate(self) -> None:
        for name, value in self.__dict__.items():
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"kernel cost {name!r} must be a positive int, got {value!r}")


#: The calibrated default kernel budget used by all experiments.
KERNEL_COSTS = KernelCosts()
