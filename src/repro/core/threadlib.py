"""The guest-visible thread library (the paper's "C with thread library").

Each thread receives a :class:`ThreadCtx` as its first argument.  The
ctx exposes the machine's global address space, the processor's local
memory, and constructors for every effect the thread may yield.  A
typical guest loop looks exactly like the paper's sorting kernel::

    def reader(ctx, mate, base, m):
        for k in range(m):
            value = yield ctx.read(ctx.ga(mate, base + k))   # split-phase
            buffer.append(value)
            yield ctx.compute(10)                            # loop body work

Local memory access through ``ctx.mem`` is free of simulated cycles —
local loads/stores are part of the instruction budgets charged with
:meth:`ThreadCtx.compute`, matching how the paper counts run length.
"""

from __future__ import annotations

from typing import Any

from ..errors import ProgramError
from ..memory import LocalMemory
from ..packet import GlobalAddress
from .effects import (
    BarrierWait,
    Compute,
    RemoteRead,
    RemoteReadBlock,
    RemoteReadPair,
    RemoteWrite,
    Spawn,
    SwitchNow,
    TokenAdvance,
    TokenWait,
)
from .sync import GlobalBarrier, OrderToken

__all__ = ["ThreadCtx"]


class ThreadCtx:
    """Per-thread handle onto the machine, passed to every thread body."""

    __slots__ = ("pe", "n_pes", "mem", "state", "tid")

    def __init__(self, pe: int, n_pes: int, mem: LocalMemory, state: dict[str, Any], tid: int) -> None:
        self.pe = pe
        self.n_pes = n_pes
        self.mem = mem
        #: Per-processor guest scratch state shared by all local threads.
        self.state = state
        self.tid = tid

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def ga(self, pe: int, offset: int) -> GlobalAddress:
        """Build a global address (processor number, local word offset)."""
        if not (0 <= pe < self.n_pes):
            raise ProgramError(f"global address names PE {pe} of {self.n_pes}")
        return GlobalAddress(pe, offset)

    # ------------------------------------------------------------------
    # Effects
    # ------------------------------------------------------------------
    def compute(self, cycles: int) -> Compute:
        """Charge ``cycles`` of real computation."""
        return Compute(cycles)

    def read(self, addr: GlobalAddress) -> RemoteRead:
        """Split-phase remote read of one word (suspends; yields value)."""
        return RemoteRead(addr)

    def read_pair(self, addr_a: GlobalAddress, addr_b: GlobalAddress) -> RemoteReadPair:
        """Split-phase read of two words with direct matching.

        Suspends once; resumes with ``(value_a, value_b)`` when both
        replies have arrived (first parks in matching memory).
        """
        return RemoteReadPair(addr_a, addr_b)

    def read_block(self, addr: GlobalAddress, count: int) -> RemoteReadBlock:
        """Split-phase block read (suspends; yields a list of words)."""
        return RemoteReadBlock(addr, count)

    def write(self, addr: GlobalAddress, value: Any) -> RemoteWrite:
        """Remote write of one word (does not suspend)."""
        return RemoteWrite(addr, value)

    def spawn(self, pe: int, func: str, *args: Any) -> Spawn:
        """Invoke thread ``func`` on ``pe`` (fire and forget)."""
        return Spawn(pe, func, args)

    def barrier_wait(self, barrier: GlobalBarrier) -> BarrierWait:
        """Arrive at an iteration barrier and wait for the release."""
        return BarrierWait(barrier)

    def token_wait(self, token: OrderToken, seq: int) -> TokenWait:
        """Wait for merge turn ``seq`` on a local order token."""
        return TokenWait(token, seq)

    def token_advance(self, token: OrderToken) -> TokenAdvance:
        """Grant the next merge turn (wakes the parked thread, if any)."""
        return TokenAdvance(token)

    def switch(self) -> SwitchNow:
        """Explicitly yield the processor (requeue at the FIFO tail)."""
        return SwitchNow()
