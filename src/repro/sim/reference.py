"""The reference engine: one heap, one pop per event.

:class:`ReferenceEngine` keeps the :class:`~repro.sim.engine.Engine`
contract — ``schedule_at``/``schedule``, ``pending``, and the inherited
``run`` with its pause, cycle-limit and quiescence semantics — over the
obviously-correct calendar: a single ``heapq`` of ``(time, seq, fn,
args)``, where ``seq`` counts pushes.  It is the oracle that the
differential tests and the event-order golden run against, and the
fixed reference of ``benchmarks/bench_engine_hotpath.py``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from ..errors import SimulationError
from .engine import Engine

__all__ = ["ReferenceEngine"]


class ReferenceEngine(Engine):
    """:class:`Engine` over a plain heap of ``(time, seq, fn, args)``."""

    def _bind_schedule(self) -> None:
        heap: list[tuple] = []
        seq = itertools.count()
        heappush = heapq.heappush
        engine = self
        self._heap = heap

        def schedule_at(when: int, fn: Callable[..., None], *args: Any) -> None:
            """Fire ``fn(*args)`` at absolute cycle ``when``."""
            if when < engine.now:
                raise SimulationError(
                    f"cannot schedule in the past: now={engine.now}, when={when}"
                )
            heappush(heap, (when, next(seq), fn, args))

        self.schedule_at = schedule_at

    @property
    def pending(self) -> int:
        return len(self._heap)

    def _pop(self) -> tuple:
        """Remove and return the earliest ``(time, seq, fn, args)``."""
        return heapq.heappop(self._heap)

    def _drain(self, limit: int, until: int | None) -> None:
        heap = self._heap
        while heap:
            when = heap[0][0]
            if when > limit:
                self._pause(when, until)
                return
            when, _, fn, args = self._pop()
            self.now = when
            self.events_fired += 1
            fn(*args)
