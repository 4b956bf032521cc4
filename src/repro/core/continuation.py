"""Continuations: where a read reply should land.

A remote-read packet's second word is "the return address which is often
called continuation" (§2.3).  We model a continuation as a small integer
id valid on the issuing processor; the reply packet carries it back and
the table resolves it to the suspended thread.  Ids are recycled so a
long run does not grow the table without bound.
"""

from __future__ import annotations

from ..errors import SchedulerError
from .thread import EMThread

__all__ = ["ContinuationTable"]


class ContinuationTable:
    """Per-processor map of continuation id → suspended thread."""

    __slots__ = ("pe", "_slots", "_free", "_next")

    def __init__(self, pe: int) -> None:
        self.pe = pe
        self._slots: dict[int, EMThread] = {}
        self._free: list[int] = []
        self._next = 0

    def register(self, thread: EMThread) -> int:
        """Park ``thread`` and return the continuation id for the packet."""
        cid = self._free.pop() if self._free else self._next
        if cid == self._next:
            self._next += 1
        if cid in self._slots:  # pragma: no cover - invariant
            raise SchedulerError(f"continuation id {cid} already live on PE {self.pe}")
        self._slots[cid] = thread
        return cid

    def resolve(self, cid: int) -> EMThread:
        """Consume a continuation id, returning the thread it parked."""
        try:
            thread = self._slots.pop(cid)
        except KeyError:
            raise SchedulerError(f"unknown continuation {cid} on PE {self.pe}") from None
        self._free.append(cid)
        return thread

    @property
    def outstanding(self) -> int:
        """Continuations currently awaiting replies."""
        return len(self._slots)
