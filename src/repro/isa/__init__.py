"""EMC-Y kernel cycle budgets.

The EXU is a register-based RISC pipeline: integer and single-precision
FP instructions retire in one cycle, FP division and the memory-exchange
instruction are multi-cycle, and packet generation takes one cycle (the
per-instruction costs are :class:`~repro.config.TimingModel` fields).
Guest programs do not execute a real ISA — they *charge* the cycle
budgets of :class:`KernelCosts`, which is exactly the granularity the
paper's analysis works at (run lengths, switch costs, latencies).
"""

from .costs import KERNEL_COSTS, KernelCosts

__all__ = ["KernelCosts", "KERNEL_COSTS"]
