"""A stable priority queue of scheduled events.

Events firing at the same cycle run in scheduling order (FIFO within a
timestamp).  Stability matters: the EM-X model leans on deterministic
ordering — e.g. the hardware FIFO thread queue and the network's
non-overtaking rule — so ties must never be broken arbitrarily.

Two implementations share one contract:

:class:`EventQueue`
    The production queue: a **two-tier calendar queue**.  A ring of
    near-future cycle buckets (one plain ``list`` per cycle in a sliding
    window) absorbs the hot path — model delays are tens of cycles, so
    virtually every push is a single ``list.append`` and every pop is an
    index bump.  Events beyond the window spill to a binary-heap far
    tier.  The engine drains one whole cycle per :meth:`EventQueue.
    next_cycle` call, the only queue call a drained cycle makes: when
    the earliest cycle lives (partly) in the far tier, its far entries
    are folded into the front of that cycle's bucket and the drain
    cursor re-anchors there, so every cycle — even one after an idle
    gap longer than the window — drains as a bucket.

:class:`ReferenceEventQueue`
    The original heapq implementation, kept as the obviously-correct
    oracle: property tests assert both queues (and an engine driving
    each) produce identical order on random push/cancel workloads, and
    the engine benchmark measures the calendar queue's speedup against
    it on real workloads.

**Determinism argument.**  Entries carry a globally monotonic ``seq``
assigned at push.  Within a near bucket, entries are appended in push
order, so same-cycle events drain in ``seq`` order; the far heap orders
by ``(time, seq)``.  The drain cursor never moves backwards, so a far
entry for a cycle at or after the cursor was pushed while that cycle
was still beyond the window — before any entry that went to its
bucket.  Folding the far entries in front of the bucket therefore keeps
``seq`` order.  An entry pushed behind the cursor (possible only through
the bare queue API: the engine's cursor never passes its clock) also
goes to the far tier; :meth:`EventQueue.pop` compares the two tier
heads by ``(time, seq)`` and still returns it first, while
:meth:`EventQueue.next_cycle` rejects it.  Every event thus fires in
globally minimal live ``(time, seq)`` order — exactly the order the
reference heapq produces — independent of window size or spill pattern.

**Cancellation** is a *tombstone slot*: the handle returned by
:meth:`EventQueue.push` is the (opaque) mutable entry itself, and
cancelling stores ``None`` in its callable slot.  Firing tombstones the
entry the same way, so a cancel that races a same-cycle pop is a strict
no-op and ``len(queue)`` — a simple live counter — can never drift.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, NamedTuple

from ..errors import SimulationError

__all__ = ["ScheduledEvent", "EventQueue", "ReferenceEventQueue"]

# Entry layout (mutable list so the fn slot can be tombstoned in place):
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3


class ScheduledEvent(NamedTuple):
    """One popped event: fire ``fn(*args)`` at cycle ``time``.

    ``seq`` is a monotonically increasing tie-breaker assigned by the
    queue; callers never set it.
    """

    time: int
    seq: int
    fn: Callable[..., None]
    args: tuple[Any, ...]


class EventQueue:
    """Two-tier calendar queue with stable same-time ordering.

    ``window`` (a power of two) is the width of the near-future bucket
    ring; pushes with ``base <= time < base + window`` go to a bucket,
    the rest to the far heap.  ``base`` is the drain cursor: every event
    before it has already left the near tier.  It only moves forward,
    and the batch interface keeps it at or before the cycle being
    drained.
    """

    __slots__ = ("_near", "_window", "_mask", "_base", "_far", "_seq", "_live", "_near_n")

    def __init__(self, window: int = 8192) -> None:
        if window < 1 or window & (window - 1):
            raise SimulationError(f"bucket window must be a power of two, got {window}")
        self._near: list[list] = [[] for _ in range(window)]
        self._window = window
        self._mask = window - 1
        self._base = 0  # all near-tier events with time < base are gone
        self._far: list[list] = []  # heap of entries, ordered by (time, seq)
        self._seq = 0
        self._live = 0  # live (pushed, not fired, not cancelled) events
        self._near_n = 0  # physical entries in the ring, tombstones included

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: int, fn: Callable[..., None], *args: Any) -> Any:
        """Schedule ``fn(*args)`` at ``time``; returns an opaque handle.

        The handle is only meaningful to :meth:`cancel`.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        entry = [time, self._seq, fn, args]
        self._seq += 1
        if 0 <= time - self._base < self._window:
            self._near[time & self._mask].append(entry)
            self._near_n += 1
        else:
            heapq.heappush(self._far, entry)
        self._live += 1
        return entry

    def cancel(self, handle: Any) -> None:
        """Cancel a previously pushed event.

        Cancellation tombstones the entry in place: the fired/cancelled
        state lives in one slot, so cancelling an already-fired (or
        already-cancelled, or unknown) handle is a silent no-op and the
        live count cannot drift even when a cancel races a same-cycle
        pop.  The tombstoned entry is physically dropped when the drain
        cursor reaches it.
        """
        if type(handle) is list and len(handle) == 4 and handle[_FN] is not None:
            handle[_FN] = None
            handle[_ARGS] = ()  # free references early
            self._live -= 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _far_head(self) -> list | None:
        """The earliest live far-tier entry (drops tombstones), or None."""
        far = self._far
        while far and far[0][_FN] is None:
            heapq.heappop(far)
        return far[0] if far else None

    def _near_head(self) -> tuple[int, list] | None:
        """(time, bucket) of the earliest live near event, or ``None``.

        Scans forward from ``base`` without moving it, physically
        dropping tombstoned prefixes so repeated scans shrink.  The
        bucket's first entry is guaranteed live on return.
        """
        if self._near_n == 0:
            return None
        near, mask = self._near, self._mask
        for t in range(self._base, self._base + self._window):
            bucket = near[t & mask]
            if not bucket:
                continue
            while bucket and bucket[0][_FN] is None:
                del bucket[0]
                self._near_n -= 1
            if bucket:
                return t, bucket
            if self._near_n == 0:
                return None
        return None  # pragma: no cover - near_n would be 0 first

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest live event (min ``(time, seq)``)."""
        nb = self._near_head()
        fh = self._far_head()
        if nb is None and fh is None:
            raise SimulationError("pop() on an empty event queue")
        if nb is not None and (fh is None or (nb[0], nb[1][0][_SEQ]) < (fh[_TIME], fh[_SEQ])):
            t, bucket = nb
            entry = bucket[0]
            del bucket[0]
            self._near_n -= 1
            self._base = t  # later same-cycle pushes still land in this bucket
        else:
            entry = heapq.heappop(self._far)
        entry[_FN], fn = None, entry[_FN]  # tombstone: late cancels are no-ops
        self._live -= 1
        return ScheduledEvent(entry[_TIME], entry[_SEQ], fn, entry[_ARGS])

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or ``None`` if empty."""
        nb = self._near_head()
        fh = self._far_head()
        if nb is None:
            return fh[_TIME] if fh is not None else None
        if fh is not None and fh[_TIME] < nb[0]:
            return fh[_TIME]
        return nb[0]

    # ------------------------------------------------------------------
    # Batch interface (the engine's hot path; see Engine.run)
    # ------------------------------------------------------------------
    def next_cycle(self, limit: int) -> tuple[int, list | None]:
        """Earliest live cycle and the near bucket holding all its events.

        Returns ``(time, bucket)``; the caller fires *bucket* in list
        order, then empties it, takes the fired and consumed entries off
        ``_live`` and ``_near_n``, and leaves the cursor ``_base`` at
        ``time``, so a push at the caller's clock still lands in the
        ring (see ``Engine._drain_calendar``).  When the earliest cycle
        has far-tier entries, they leave the heap in ``(time, seq)``
        order for the front of its bucket (which keeps ``seq`` order;
        see the module docstring) and the cursor re-anchors there, so an
        empty ring never strands it behind an idle gap.  A cycle beyond
        ``limit`` comes back as ``(time, None)`` with the queue
        untouched: a caller that pauses there may still push at its own
        clock, which must not fall behind the cursor.

        This runs once per drained cycle, so it repeats the ring scan of
        :meth:`_near_head` and the far-head check of :meth:`_far_head`
        in its own body rather than calling them.
        """
        far = self._far
        while far and far[0][_FN] is None:
            heapq.heappop(far)
        if self._near_n:
            near, mask = self._near, self._mask
            base = self._base
            for t in range(base, base + self._window):
                bucket = near[t & mask]
                if not bucket:
                    continue
                while bucket and bucket[0][_FN] is None:
                    del bucket[0]
                    self._near_n -= 1
                if bucket:
                    if not far or t < far[0][_TIME]:
                        return t, bucket
                    break
                if not self._near_n:
                    break
        fh = far[0]
        t = fh[_TIME]
        if t < self._base:
            raise SimulationError(
                f"far-tier event at cycle {t} is behind the drain cursor {self._base}"
            )
        if t > limit:
            return t, None
        self._base = t
        folded = []
        while far and far[0][_TIME] == t:
            entry = heapq.heappop(far)
            if entry[_FN] is not None:
                folded.append(entry)
        bucket = self._near[t & self._mask]
        bucket[:0] = folded
        self._near_n += len(folded)
        return t, bucket


class ReferenceEventQueue:
    """The original binary-heap queue: the correctness oracle.

    Same contract as :class:`EventQueue` (opaque cancel handles, lazily
    dropped cancellations, live-only ``len``), implemented with one
    ``heapq`` plus pending/cancelled sets.  Kept for differential tests
    and as the benchmark's fixed reference point.
    """

    __slots__ = ("_heap", "_seq", "_pending", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._seq = 0
        self._pending: set[int] = set()
        self._cancelled: set[int] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def push(self, time: int, fn: Callable[..., None], *args: Any) -> Any:
        """Schedule ``fn(*args)`` at ``time``; returns an opaque handle."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, ScheduledEvent(time, seq, fn, args))
        self._pending.add(seq)
        return seq

    def cancel(self, handle: Any) -> None:
        """Cancel a pushed event; unknown/fired handles are no-ops."""
        if handle in self._pending:
            self._pending.discard(handle)
            self._cancelled.add(handle)

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest live event."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.seq in self._cancelled:
                self._cancelled.discard(ev.seq)
                continue
            self._pending.discard(ev.seq)
            return ev
        raise SimulationError("pop() on an empty event queue")

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or ``None`` if empty."""
        while self._heap:
            ev = self._heap[0]
            if ev.seq in self._cancelled:
                heapq.heappop(self._heap)
                self._cancelled.discard(ev.seq)
                continue
            return ev.time
        return None
