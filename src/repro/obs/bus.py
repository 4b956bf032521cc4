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

    __slots__ = ("_subscribers", "_by_category")

    def __init__(self) -> None:
        self._subscribers: list[tuple[Subscriber, frozenset[Category] | None]] = []
        self._by_category: dict[Category, tuple[Subscriber, ...]] = {
            c: () for c in Category
        }

    def subscribe(
        self, fn: Subscriber, categories: Iterable[Category] | None = None
    ) -> None:
        """Deliver every event (or only ``categories``) to ``fn``."""
        cats = None if categories is None else frozenset(categories)
        self._subscribers.append((fn, cats))
        self._rebuild()

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove every subscription of ``fn`` (no-op if absent).

        Compares with ``==`` so a re-derived bound method (``obj.method``
        creates a fresh object on every attribute access) still matches
        its registered subscription.
        """
        self._subscribers = [(f, c) for f, c in self._subscribers if f != fn]
        self._rebuild()

    def _rebuild(self) -> None:
        self._by_category = {
            c: tuple(
                fn
                for fn, cats in self._subscribers
                if cats is None or c in cats
            )
            for c in Category
        }

    def wants(self, category: Category) -> bool:
        """True if any subscriber listens to ``category``.

        No emit site consults it: each builds its event whenever a bus is
        installed, and :meth:`emit` drops an event no subscriber wants.
        """
        return bool(self._by_category[category])

    def emit(self, event) -> None:
        """Dispatch one event to its category's subscribers."""
        for fn in self._by_category[event.category]:
            fn(event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventBus(subscribers={len(self._subscribers)})"
