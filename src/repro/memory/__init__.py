"""Per-processor memory system.

Each EMC-Y has 4 MB of one-level static memory.  This package models it
as word-addressed local memory with bounds checking, plus the matching
memory used for two-token direct matching.  The hardware also keeps
template segments (thread code) and operand segments (activation
frames) in that memory; the model lays out neither, because thread code
lives in the machine's program registry and a register save is charged
as ``TimingModel.reg_save`` cycles at each switch.
"""

from .matching import MatchingMemory
from .memory import LocalMemory

__all__ = ["LocalMemory", "MatchingMemory"]
