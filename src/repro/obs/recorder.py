"""Bounded in-memory event recording.

A :class:`RingRecorder` subscribes to an :class:`~repro.obs.bus.EventBus`
and keeps the most recent ``capacity`` events in a ring buffer.  The
bound is what makes full-length runs memory-safe: a multi-million-cycle
sweep can run with tracing on and the recorder holds a fixed-size tail
instead of the whole stream.  ``dropped`` reports how many events were
evicted, so exporters can say loudly when a trace is a suffix rather
than the full run.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from ..errors import ConfigError
from .bus import EventBus
from .events import Category

__all__ = ["RingRecorder"]


class RingRecorder:
    """Keeps the newest ``capacity`` events, oldest evicted first."""

    def __init__(
        self,
        bus: EventBus | None = None,
        *,
        capacity: int = 1_000_000,
        categories: Iterable[Category] | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.categories = None if categories is None else frozenset(categories)
        self._ring: deque = deque(maxlen=capacity)
        #: Events offered to the recorder (recorded + evicted).
        self.seen = 0
        if bus is not None:
            bus.subscribe(self.record, self.categories)

    # ------------------------------------------------------------------
    def record(self, event) -> None:
        """Bus subscriber entry: append one event (evicting if full)."""
        self.seen += 1
        self._ring.append(event)

    # ------------------------------------------------------------------
    @property
    def events(self) -> list:
        """The recorded events, oldest first, as a new list: each access
        copies the ring, so read it once into a local."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self.seen - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RingRecorder({len(self._ring)}/{self.capacity} events, "
            f"{self.dropped} dropped)"
        )
