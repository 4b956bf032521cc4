"""Matching memory for two-token direct matching.

The Matching Unit pairs dataflow tokens: when a thread's first operand
packet arrives it is parked in matching memory keyed by the activation
frame slot; the second arrival *matches*, the mate datum is loaded, and
the thread fires with both operands (§2.2, step "loading mate data from
matching memory").  The fine-grain runtime uses this for two-input
thread starts; single-operand packets bypass matching entirely.
"""

from __future__ import annotations

from typing import Any

__all__ = ["MatchingMemory"]

_MISSING = object()  # sentinel: one dict probe per offer instead of two


class MatchingMemory:
    """Parked first operands, keyed by (frame_id, slot)."""

    __slots__ = ("_parked", "_obs", "_pe", "_engine")

    def __init__(self) -> None:
        self._parked: dict[tuple[int, int], Any] = {}
        self._obs = None
        self._pe = 0
        self._engine = None

    def attach_obs(self, obs, pe: int, engine) -> None:
        """Install the observability sink (processor construction time).

        ``engine.now`` is read at each park/match so the emitted
        :class:`~repro.obs.events.MatchEvent` carries the cycle the
        token actually moved.
        """
        self._obs = obs
        self._pe = pe
        self._engine = engine

    def offer(self, frame_id: int, slot: int, value: Any) -> tuple[Any, Any] | None:
        """Offer one operand token.

        Returns ``None`` if the token was parked to wait for its mate,
        or the ``(first, second)`` operand pair when the match fires.
        """
        parked = self._parked
        key = (frame_id, slot)
        first = parked.pop(key, _MISSING)
        if first is not _MISSING:
            if self._obs is not None:
                self._emit(frame_id, slot, True)
            return (first, value)
        parked[key] = value
        if self._obs is not None:
            self._emit(frame_id, slot, False)
        return None

    def _emit(self, frame_id: int, slot: int, matched: bool) -> None:
        from ..obs.events import MatchEvent  # local: memory stays obs-free when off

        self._obs.emit(MatchEvent(self._engine.now, self._pe, frame_id, slot, matched))

    @property
    def pending(self) -> int:
        """Tokens currently waiting for a mate."""
        return len(self._parked)
