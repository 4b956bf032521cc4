"""The discrete-event engine driving one simulated EM-X machine.

The engine owns the simulated time and the event calendar.  Model
components schedule callbacks (`schedule_at`, or `schedule` for a
relative delay); :meth:`Engine.run` fires them in stable ``(time,
push)`` order until the calendar drains or a cycle limit is hit.  Ties
must never be broken arbitrarily: the hardware FIFO thread queue and
the network's non-overtaking rule both lean on same-cycle events firing
in the order they were scheduled.  An entry is pushed once and fired
once; nothing withdraws it.

**The calendar.**  A ring of :data:`WINDOW` per-cycle buckets (plain
lists) absorbs virtually every push as one ``list.append``: model
delays are tens of cycles.  Events beyond the window spill to a far
heap ordered by ``(time, seq)``.  :meth:`Engine.run` drains one whole
cycle bucket at a time, so the clock advance, horizon check and
quiescence test happen once per simulated cycle rather than once per
event, and the bucket fires in list order, same-cycle appends included.

**Determinism argument.**  A bucket holds its cycle's events in push
order.  The drain cursor ``_base`` never moves backwards and never
passes the clock, and only a push at or beyond ``_base + WINDOW`` goes
to the heap, so a cycle's heap entries were all pushed while it was
still beyond the window, before any entry of its bucket.  When that
cycle comes due, its heap entries leave the heap in ``seq`` order for
the front of its bucket and the cursor re-anchors there; an idle gap
longer than the ring thus drains as a bucket too.  Every event fires in
the order a single heap of ``(time, push count)`` would give —
:class:`~repro.sim.reference.ReferenceEngine` is that heap, kept as the
oracle.

``Engine.now`` is the one clock: a plain integer cycle count, written
only by the run loop.  ``schedule_at`` rejects the past and a pause
rejects a horizon behind ``now``, so the clock never moves backwards.
Model code reads it millions of times per run, so it must never become
a property.

A *quiescence watcher* may be installed: when the calendar drains, the
engine asks it whether the model is genuinely finished; if the watcher
reports live-but-stuck work (suspended threads with no pending wake-up)
the engine raises :class:`~repro.errors.DeadlockError` instead of
silently returning — a lost packet or an unreleasable barrier should
fail loudly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from ..errors import DeadlockError, SimulationError

__all__ = ["Engine", "WINDOW"]

#: Width in cycles of the ring of per-cycle buckets (a power of two).
WINDOW = 8192
_MASK = WINDOW - 1


class Engine:
    """Event loop: the current cycle plus a calendar of callbacks."""

    def __init__(self, max_cycles: int = 4_000_000_000) -> None:
        if max_cycles < 1:
            raise SimulationError(f"max_cycles must be positive, got {max_cycles}")
        #: Current simulated cycle (plain attribute; only the run loop
        #: writes it).
        self.now = 0
        self.max_cycles = max_cycles
        self.events_fired = 0
        #: Optional callable returning a description of stuck work, or
        #: ``None``/empty string when the model is legitimately done.
        self.quiescence_watcher: Callable[[], str | None] | None = None
        self._bind_schedule()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _bind_schedule(self) -> None:
        """Build the calendar and the ``schedule_at`` closure that fills it.

        Model code calls ``schedule_at`` once per event, so it is a
        closure over the ring and the heap rather than a method: one
        Python frame, no attribute lookups for the containers.
        """
        near: list[list] = [[] for _ in range(WINDOW)]
        far: list[tuple] = []  # heap of (time, seq, fn, args)
        seq = itertools.count()
        heappush = heapq.heappush
        engine = self
        self._near = near
        self._far = far
        self._near_n = 0  # entries in the ring
        self._base = 0  # drain cursor: the ring holds cycles [_base, _base + WINDOW)

        def schedule_at(when: int, fn: Callable[..., None], *args: Any) -> None:
            """Fire ``fn(*args)`` at absolute cycle ``when``."""
            if when < engine.now:
                raise SimulationError(
                    f"cannot schedule in the past: now={engine.now}, when={when}"
                )
            if when - engine._base < WINDOW:
                near[when & _MASK].append((fn, args))
                engine._near_n += 1
            else:
                heappush(far, (when, next(seq), fn, args))

        self.schedule_at = schedule_at

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Fire ``fn(*args)`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, fn, *args)

    @property
    def pending(self) -> int:
        """Events scheduled and not yet fired."""
        return self._near_n + len(self._far)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: int | None = None) -> int:
        """Process events until quiescence, ``until``, or ``max_cycles``.

        Returns the clock value when the loop stops.  Raises
        :class:`DeadlockError` if the calendar drains while the
        quiescence watcher reports stuck work, and
        :class:`SimulationError` if the cycle limit is exceeded (runaway
        guest program).  A handler that raises propagates out of
        ``run``; the events fired before it (and it) are gone, and a
        later ``run()`` fires the rest of its cycle first.
        """
        limit = self.max_cycles if until is None else min(until, self.max_cycles)
        self._drain(limit, until)
        if not self.pending and self.quiescence_watcher is not None:
            stuck = self.quiescence_watcher()
            if stuck:
                raise DeadlockError(f"event queue drained with live work: {stuck}")
        return self.now

    def _pause(self, when: int, until: int | None) -> None:
        """Stop before ``when``, the next event, which lies past the limit.

        The horizon is the caller's ``until`` when it lies within
        ``max_cycles``: stopping there is a pause, wherever the next
        event lies.  Past a horizon of ``max_cycles`` itself, the run is
        a runaway.
        """
        if until is None or until > self.max_cycles:
            raise SimulationError(
                f"simulation exceeded max_cycles={self.max_cycles} "
                f"(next event at {when}); runaway guest program?"
            )
        if until < self.now:
            raise SimulationError(f"clock moved backwards: {self.now} -> {until}")
        self.now = until

    def _drain(self, limit: int, until: int | None) -> None:
        """Fire cycle buckets in time order up to ``limit``."""
        far = self._far
        while self._near_n or far:
            t, bucket = self._next_cycle(limit)
            if t > limit:
                self._pause(t, until)
                return
            self.now = t
            try:
                for entry in bucket:  # reaches same-cycle appends too
                    entry[0](*entry[1])
                fired = len(bucket)
            except BaseException:
                # The fired prefix ends at the raising handler, found by
                # identity: equal pushes compare equal.
                fired = next(i for i, e in enumerate(bucket) if e is entry) + 1
                raise
            finally:
                del bucket[:fired]
                self.events_fired += fired
                self._near_n -= fired
            # The cursor stays at `t`, so a push at this clock (from a
            # later run()) still lands in the ring.
            self._base = t

    def _next_cycle(self, limit: int) -> tuple[int, list | None]:
        """The earliest pending cycle and the bucket holding all its events.

        When that cycle has heap entries, they move in ``seq`` order to
        the front of its bucket and the cursor re-anchors there.  A cycle
        from the heap beyond ``limit`` comes back with the calendar
        untouched and no bucket: a caller that pauses there may still
        push at its own clock, which must not fall behind the cursor.
        """
        far = self._far
        if self._near_n:
            near = self._near
            for t in range(self._base, self._base + WINDOW):
                bucket = near[t & _MASK]
                if bucket:
                    if not far or t < far[0][0]:
                        return t, bucket
                    break
        t = far[0][0]
        if t > limit:
            return t, None
        folded = []
        while far and far[0][0] == t:
            _, _, fn, args = heapq.heappop(far)
            folded.append((fn, args))
        bucket = self._near[t & _MASK]
        bucket[:0] = folded
        self._near_n += len(folded)
        self._base = t
        return t, bucket

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(now={self.now}, pending={self.pending})"
