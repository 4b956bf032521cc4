"""Effects a guest thread may yield to the Execution Unit.

Each effect corresponds to a mechanism of the EM-X thread library.
*Suspending* effects (:class:`RemoteRead`, :class:`RemoteReadPair`,
:class:`RemoteReadBlock`, :class:`BarrierWait`, :class:`TokenWait`,
:class:`SwitchNow`) end the current run burst — the thread's registers
are saved and the EXU turns to the hardware FIFO.  Non-suspending
effects (:class:`Compute`, :class:`RemoteWrite`, :class:`Spawn`,
:class:`TokenAdvance`) are consumed inline and the generator continues
within the same burst, exactly as remote writes "do not suspend the
issuing threads" on the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ThreadProtocolError
from ..packet import GlobalAddress

__all__ = [
    "Effect",
    "Compute",
    "FusedRead",
    "FusedReadPair",
    "RemoteRead",
    "RemoteReadPair",
    "RemoteReadBlock",
    "RemoteWrite",
    "Spawn",
    "BarrierWait",
    "TokenWait",
    "TokenAdvance",
    "SwitchNow",
]


class Effect:
    """Marker base class; the EXU type-checks every yielded object."""

    __slots__ = ()
    #: Whether the effect ends the thread's run burst.
    suspends: bool = False


@dataclass(slots=True)
class Compute(Effect):
    """Charge ``cycles`` of computation (the thread's real work)."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ThreadProtocolError(f"negative compute cycles {self.cycles}")


@dataclass(slots=True)
class RemoteRead(Effect):
    """Split-phase read of one word at ``addr``; resumes with the value."""

    addr: GlobalAddress
    suspends = True


@dataclass(slots=True)
class FusedRead(Effect):
    """``Compute(cycles)`` immediately followed by ``RemoteRead(addr)``.

    Emitted only by EM-C codegen (:mod:`repro.compile.codegen`): it
    knows at compile time that a compute charge is followed by a remote
    read, so it fuses the pair into one yield.  The EXU accounts for it
    exactly as the two-effect sequence would — same cycle charges, same
    packet offsets, same counters — so fused and unfused runs are
    byte-identical.  ``cycles`` may be zero (a bare read).
    """

    cycles: int
    addr: GlobalAddress
    suspends = True

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ThreadProtocolError(f"negative compute cycles {self.cycles}")


@dataclass(slots=True)
class FusedReadPair(Effect):
    """``Compute(cycles)`` followed by ``RemoteReadPair(a, b)``, fused."""

    cycles: int
    addr_a: GlobalAddress
    addr_b: GlobalAddress
    suspends = True

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ThreadProtocolError(f"negative compute cycles {self.cycles}")


@dataclass(slots=True)
class RemoteReadPair(Effect):
    """Split-phase read of two words through two-token direct matching.

    Both request packets depart in one burst; the thread suspends once
    and resumes with ``(value_a, value_b)`` when the second reply
    matches the first in matching memory — the Matching Unit's natural
    two-operand thread firing.  This is how the FFT reads each point's
    real and imaginary words without serialising the two latencies.
    """

    addr_a: GlobalAddress
    addr_b: GlobalAddress
    suspends = True


@dataclass(slots=True)
class RemoteReadBlock(Effect):
    """Split-phase read of ``count`` consecutive words; resumes with a list."""

    addr: GlobalAddress
    count: int
    suspends = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ThreadProtocolError(f"block read of {self.count} words")


@dataclass(slots=True)
class RemoteWrite(Effect):
    """One-word remote write; the thread continues immediately."""

    addr: GlobalAddress
    value: Any


@dataclass(slots=True)
class Spawn(Effect):
    """Fire-and-forget thread invocation on processor ``pe``."""

    pe: int
    func: str
    args: tuple[Any, ...] = ()


@dataclass(slots=True)
class BarrierWait(Effect):
    """Arrive at an iteration barrier and wait for the global release."""

    barrier: Any  # GlobalBarrier; typed loosely to avoid an import cycle
    suspends = True


@dataclass(slots=True)
class TokenWait(Effect):
    """Wait until an :class:`~repro.core.sync.OrderToken` reaches ``seq``."""

    token: Any
    seq: int
    suspends = True


@dataclass(slots=True)
class TokenAdvance(Effect):
    """Advance an order token by one, waking the next waiter if any."""

    token: Any


@dataclass(slots=True)
class SwitchNow(Effect):
    """Explicit context switch: requeue this thread at the FIFO tail."""

    suspends = True
