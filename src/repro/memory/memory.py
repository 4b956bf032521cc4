"""Word-addressed local memory of one EMC-Y processor.

The prototype has 4 MB of one-level static memory per processor.  We
model it as a flat word array with bounds checking.  Words hold Python
numbers (the hardware's 32-bit integers and single-precision floats);
the simulator does not bit-pack them — what matters for the paper's
measurements is *which* words move, not their bit patterns.

Reads of never-written words return 0, matching SRAM-after-clear
semantics and keeping large sparse buffers cheap (backing store is a
dict, so an 8M-point guest array costs only what it touches).
"""

from __future__ import annotations

from typing import Iterable

from ..errors import MemoryFault

__all__ = ["LocalMemory"]


class LocalMemory:
    """Bounds-checked, sparsely backed word memory."""

    __slots__ = ("size", "_words")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise MemoryFault(f"memory size must be >= 1 word, got {size}")
        self.size = size
        self._words: dict[int, float | int] = {}

    def _check(self, offset: int, span: int = 1) -> None:
        if offset < 0 or offset + span > self.size:
            raise MemoryFault(
                f"access [{offset}, {offset + span}) outside memory of {self.size} words"
            )

    def read(self, offset: int) -> float | int:
        """Load one word."""
        self._check(offset)
        return self._words.get(offset, 0)

    def write(self, offset: int, value: float | int) -> None:
        """Store one word."""
        self._check(offset)
        self._words[offset] = value

    def read_block(self, offset: int, count: int) -> list[float | int]:
        """Load ``count`` consecutive words."""
        if count < 0:
            raise MemoryFault(f"negative block length {count}")
        self._check(offset, max(count, 1) if count else 0)
        get = self._words.get
        return [get(i, 0) for i in range(offset, offset + count)]

    def write_block(self, offset: int, values: Iterable[float | int]) -> int:
        """Store consecutive words; returns the number written."""
        vals = list(values)
        if vals:
            self._check(offset, len(vals))
        for i, v in enumerate(vals):
            self._words[offset + i] = v
        return len(vals)

    def __len__(self) -> int:
        return self.size
