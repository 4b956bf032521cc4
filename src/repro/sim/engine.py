"""The discrete-event engine driving one simulated EM-X machine.

The engine owns the simulated time and the event queue.  Model
components schedule callbacks (`schedule`/`schedule_at`);
:meth:`Engine.run` pops events in time order until the queue drains or
a cycle limit is hit.

**Hot path.**  :meth:`Engine.run` drains the calendar queue (see
:mod:`repro.sim.queue`) one *cycle batch* at a time: the clock advance,
cycle-limit check and quiescence test happen once per simulated cycle
rather than once per event, and every event of that cycle then fires
from a plain bucket list with nothing but a tombstone check per event.
There is no per-event fallback: events that spilled to the far tier are
folded into the front of their cycle's bucket when that cycle comes due,
and the drain cursor re-anchors at it, so even a cycle after an idle gap
longer than the ring drains as one batch.  Determinism is unchanged: a
bucket holds its cycle's events in ``seq`` order, folded far entries
included, so the firing sequence is exactly what the reference heapq
engine produces.

``Engine.now`` is the one clock: a plain integer cycle count, written
only by the run loop, which raises :class:`~repro.errors.SimulationError`
if it would ever move backwards.  Model code reads it millions of times
per run, so it must never become a property again.

A *quiescence watcher* may be installed: when the queue drains, the
engine asks it whether the model is genuinely finished; if the watcher
reports live-but-stuck work (suspended threads with no pending wake-up)
the engine raises :class:`~repro.errors.DeadlockError` instead of
silently returning — a lost packet or an unreleasable barrier should
fail loudly.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import DeadlockError, SimulationError
from .queue import EventQueue

__all__ = ["Engine"]


class Engine:
    """Event loop: the current cycle plus a stable event queue.

    ``queue`` defaults to the calendar :class:`EventQueue`; any object
    with the same contract (``push``/``cancel``/``pop``/``peek_time``/
    ``__len__``) works too — e.g. :class:`~repro.sim.queue.
    ReferenceEventQueue` — at the cost of the generic, non-batched run
    loop.
    """

    def __init__(self, max_cycles: int = 4_000_000_000, queue: Any | None = None) -> None:
        if max_cycles < 1:
            raise SimulationError(f"max_cycles must be positive, got {max_cycles}")
        #: Current simulated cycle (plain attribute; only the run loop
        #: writes it).
        self.now = 0
        self.queue = EventQueue() if queue is None else queue
        self.max_cycles = max_cycles
        self.events_fired = 0
        #: Optional callable returning a description of stuck work, or
        #: ``None``/empty string when the model is legitimately done.
        self.quiescence_watcher: Callable[[], str | None] | None = None
        self._push = self.queue.push  # bound once: schedule() is hot
        if type(self.queue) is EventQueue:
            self._bind_fast_schedule()

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> Any:
        """Fire ``fn(*args)`` ``delay`` cycles from now; returns a handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._push(self.now + delay, fn, *args)

    def schedule_at(self, when: int, fn: Callable[..., None], *args: Any) -> Any:
        """Fire ``fn(*args)`` at absolute cycle ``when``; returns a handle."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: now={self.now}, when={when}")
        return self._push(when, fn, *args)

    def _bind_fast_schedule(self) -> None:
        """Shadow ``schedule``/``schedule_at`` with closures that inline
        :meth:`EventQueue.push`.

        Model code calls these two methods once per event — the single
        extra Python frame of the ``schedule → push`` chain is measurable
        on the fig6 sweep, so when the engine owns the calendar queue the
        push body is fused in.  Semantics are identical: same validation
        (``time >= now >= 0`` subsumes the queue's negative-time check),
        same ``seq`` assignment order, same handles.  Generic queues
        (e.g. :class:`~repro.sim.queue.ReferenceEventQueue`) keep the
        plain class methods.
        """
        queue = self.queue
        near = queue._near
        mask = queue._mask
        window = queue._window
        far = queue._far
        heappush = heapq.heappush
        engine = self

        def schedule(delay: int, fn: Callable[..., None], *args: Any) -> Any:
            if delay < 0:
                raise SimulationError(f"negative delay {delay}")
            time = engine.now + delay
            entry = [time, queue._seq, fn, args]
            queue._seq += 1
            if 0 <= time - queue._base < window:
                near[time & mask].append(entry)
                queue._near_n += 1
            else:
                heappush(far, entry)
            queue._live += 1
            return entry

        def schedule_at(when: int, fn: Callable[..., None], *args: Any) -> Any:
            if when < engine.now:
                raise SimulationError(
                    f"cannot schedule in the past: now={engine.now}, when={when}"
                )
            entry = [when, queue._seq, fn, args]
            queue._seq += 1
            if 0 <= when - queue._base < window:
                near[when & mask].append(entry)
                queue._near_n += 1
            else:
                heappush(far, entry)
            queue._live += 1
            return entry

        self.schedule = schedule
        self.schedule_at = schedule_at

    def cancel(self, handle: Any) -> None:
        """Cancel a scheduled event by handle (no-op if already fired)."""
        self.queue.cancel(handle)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: int | None = None) -> int:
        """Process events until quiescence, ``until``, or ``max_cycles``.

        Returns the clock value when the loop stops.  Raises
        :class:`DeadlockError` if the queue drains while the quiescence
        watcher reports stuck work, and :class:`SimulationError` if the
        cycle limit is exceeded (runaway guest program).
        """
        queue = self.queue
        if type(queue) is EventQueue:
            self._drain_calendar(queue, until)
        else:
            self._drain_generic(queue, until)
        if not queue and self.quiescence_watcher is not None:
            stuck = self.quiescence_watcher()
            if stuck:
                raise DeadlockError(f"event queue drained with live work: {stuck}")
        return self.now

    def _limit(self, until: int | None) -> int:
        return self.max_cycles if until is None else min(until, self.max_cycles)

    def _pause_or_raise(self, when: int, until: int | None) -> bool:
        """Handle the next event lying beyond the horizon; True = pause.

        The horizon is the caller's ``until`` when it lies within
        ``max_cycles``: stopping there is a pause, wherever the next
        event lies.  Past a horizon of ``max_cycles`` itself, the run is
        a runaway.
        """
        if until is not None and until <= self.max_cycles:
            # Paused by the caller's horizon, not a failure.
            if until < self.now:
                raise SimulationError(f"clock moved backwards: {self.now} -> {until}")
            self.now = until
            return True
        raise SimulationError(
            f"simulation exceeded max_cycles={self.max_cycles} "
            f"(next event at {when}); runaway guest program?"
        )

    def _drain_calendar(self, queue: EventQueue, until: int | None) -> None:
        """Batch-drain loop over the calendar queue's cycle buckets."""
        limit = self._limit(until)
        while queue._live:
            t, bucket = queue.next_cycle(limit)
            if t > limit:
                if self._pause_or_raise(t, until):
                    return
            if t < self.now:
                raise SimulationError(f"clock moved backwards: {self.now} -> {t}")
            self.now = t
            # Fire the whole bucket in place.  Same-cycle pushes append
            # to `bucket` while we iterate, so the index runs until it
            # falls off the (possibly growing) end — IndexError is the
            # loop exit, free in 3.11 until raised.  Tombstoned entries
            # just skip.  A raising handler leaves the rest of the
            # bucket in place behind tombstones, so `len(queue)` stays
            # exact and a later run() resumes the cycle.
            i = 0
            fired = 0
            try:
                while True:
                    try:
                        entry = bucket[i]
                    except IndexError:
                        break  # drained (3.11 try setup is free)
                    i += 1
                    fn = entry[2]
                    if fn is not None:
                        entry[2] = None
                        fired += 1
                        fn(*entry[3])
            finally:
                self.events_fired += fired
                queue._live -= fired
            # Drop the drained entries; the cursor stays at `t`, so a
            # push at this clock (from a later run()) still lands in the
            # ring rather than behind the cursor.
            bucket.clear()
            queue._near_n -= i
            queue._base = t

    def _drain_generic(self, queue: Any, until: int | None) -> None:
        """Reference loop: one peek/pop per event, any queue object."""
        limit = self._limit(until)
        while queue:
            when = queue.peek_time()
            assert when is not None  # queue is non-empty
            if when > limit:
                if self._pause_or_raise(when, until):
                    return
            ev = queue.pop()
            if ev.time < self.now:
                raise SimulationError(f"clock moved backwards: {self.now} -> {ev.time}")
            self.now = ev.time
            self.events_fired += 1
            ev.fn(*ev.args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Engine(now={self.now}, pending={len(self.queue)}, fired={self.events_fired})"
