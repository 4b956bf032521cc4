"""The EMC-Y processing element: units, memory, and bookkeeping.

One :class:`EMCYProcessor` aggregates the local memory system (memory
and matching memory), the pipeline units (IBU, EXU, OBU), the
continuation table, and the per-PE counters.  The machine attaches the
IBU's :meth:`~repro.processor.ibu.InputBufferUnit.receive` to the
network as this PE's packet sink (the Switching Unit's role).
"""

from __future__ import annotations

from ..core.continuation import ContinuationTable
from ..memory import LocalMemory, MatchingMemory
from ..metrics.counters import PECounters
from .exu import ExecutionUnit
from .ibu import InputBufferUnit
from .obu import OutputBufferUnit

__all__ = ["EMCYProcessor"]


class EMCYProcessor:
    """One processing element of the EM-X."""

    def __init__(self, pe: int, machine) -> None:
        self.pe = pe
        self.machine = machine
        config = machine.config

        # Memory system (MCU-owned resources).
        self.memory = LocalMemory(config.memory_words)
        self.matching = MatchingMemory()
        if machine.obs is not None:
            self.matching.attach_obs(machine.obs, pe, machine.engine)

        # Runtime bookkeeping.
        self.continuations = ContinuationTable(pe)
        self.counters = PECounters(pe)
        self.live_threads = 0
        #: Guest scratch shared by all threads on this PE (the apps keep
        #: their per-processor program state here).
        self.guest_state: dict = {}

        # Pipeline units.
        self.obu = OutputBufferUnit(pe, machine.engine, machine.network, machine.obs)
        self.ibu = InputBufferUnit(self)
        self.exu = ExecutionUnit(self)

    # ------------------------------------------------------------------
    def stuck_report(self) -> str | None:
        """Describe live-but-unreachable work for deadlock diagnosis."""
        if self.live_threads == 0 and self.continuations.outstanding == 0:
            return None
        return (
            f"PE {self.pe}: {self.live_threads} live threads, "
            f"{self.continuations.outstanding} outstanding continuations, "
            f"{self.ibu.queued} queued packets"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EMCYProcessor(pe={self.pe}, live={self.live_threads})"
