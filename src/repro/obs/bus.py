"""The event bus: the single funnel between the model and observers.

Design constraint: the simulator must pay **near-zero cost when tracing
is off**.  That property lives at the emit sites, not here — the
machine-wide handle (``EMX.obs``) is simply ``None`` when observability
is disabled, and every producer guards with one attribute-is-None test
before constructing an event.  When a bus *is* installed, :meth:`emit`
is a dict lookup plus a loop over the (usually one) subscribers that
asked for the event's category.  :class:`~repro.obs.events.Category`
hashes by identity, so that lookup runs no Python-level ``__hash__``.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .events import Category

__all__ = ["EventBus"]

Subscriber = Callable[[object], None]


class EventBus:
    """Routes typed events to category-filtered subscribers."""

    __slots__ = ("_by_category",)

    def __init__(self) -> None:
        self._by_category: dict[Category, tuple[Subscriber, ...]] = {
            c: () for c in Category
        }

    def subscribe(
        self, fn: Subscriber, categories: Iterable[Category] | None = None
    ) -> None:
        """Deliver every event (or only ``categories``) to ``fn``;
        subscribers run in the order they subscribed."""
        for c in Category if categories is None else frozenset(categories):
            self._by_category[c] += (fn,)

    def emit(self, event) -> None:
        """Dispatch one event to its category's subscribers.

        Every emit site builds its event whenever a bus is installed; an
        event no subscriber asked for is dropped here.
        """
        for fn in self._by_category[event.category]:
            fn(event)
