"""Instruction costs and kernel budgets."""

import pytest

from repro.config import TimingModel
from repro.errors import ConfigError
from repro.isa import KERNEL_COSTS, KernelCosts


def test_default_instruction_costs_match_paper():
    """Integer and single-precision FP take one clock; packet generation
    takes one clock (§2.2)."""
    timing = TimingModel()
    assert timing.int_op == 1
    assert timing.fp_op == 1
    assert timing.pkt_gen == 1
    assert timing.fp_div > 1
    assert timing.mem_exchange > 1


def test_kernel_costs_paper_values():
    """The budgets the paper quotes: 12-clock sorting loop body, <= 10
    instructions per merged element, hundreds of clocks per FFT point."""
    assert KERNEL_COSTS.sort_read_loop_body == 12
    assert KERNEL_COSTS.sort_merge_per_element <= 10
    assert KERNEL_COSTS.fft_butterfly_per_point >= 100


def test_kernel_costs_validation():
    with pytest.raises(ConfigError):
        KernelCosts(sort_read_loop_body=0).validate()
    KERNEL_COSTS.validate()
