"""The observability event vocabulary.

Every interesting thing the simulated machine does maps onto one typed
event record: a context switch with its paper classification,
a packet moving through the fabric, a matching-store park/match, a
barrier generation advancing, a thread changing state, or a span of
EXU/IBU activity.  Events carry the simulated cycle (``t``) and enough
identity (PE number, packet sequence number, thread id) for the derived
views in :mod:`repro.obs.views` to reconstruct timelines and per-packet
lifecycles without touching live simulator objects.

Events are grouped into :class:`Category` buckets so recorders can
subscribe to a subset — a full-length run with only ``SWITCH`` events
enabled stays tiny even when the packet stream would not.

The records are slotted but not frozen: a traced run builds one per
event, and a frozen dataclass's ``__init__`` sets every field through
``object.__setattr__``, about four times the cost of a plain slotted
one.  Nothing hashes or mutates a record once it is emitted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

from ..metrics.counters import SwitchKind
from ..packet import PacketKind

__all__ = [
    "Category",
    "ThreadSwitch",
    "BurstSpan",
    "PacketSend",
    "PacketHop",
    "PacketDeliver",
    "MatchEvent",
    "BarrierEvent",
    "ThreadLife",
    "CohortEvent",
]


class Category(enum.Enum):
    """Coarse event families, the unit of subscription filtering."""

    SWITCH = "switch"
    BURST = "burst"
    PACKET = "packet"
    MATCH = "match"
    BARRIER = "barrier"
    THREAD = "thread"
    COHORT = "cohort"

    # Identity hash (C slot): the bus looks up every event's route by
    # its category, and Enum.__hash__ is a Python-level call.
    __hash__ = object.__hash__


@dataclass(slots=True)
class ThreadSwitch:
    """One context switch, classified as the paper classifies them."""

    category: ClassVar[Category] = Category.SWITCH

    t: int
    pe: int
    kind: SwitchKind
    thread: str = ""


@dataclass(slots=True)
class BurstSpan:
    """A span of unit activity on one PE.

    ``kind`` is one of ``burst`` (running guest code), ``spin`` (a failed
    barrier re-check), ``service`` (EM-4-mode read service on the EXU),
    ``idle`` (unmasked communication gap) or ``dma`` (the IBU's
    by-passing DMA answering a remote read).  ``unit`` separates the EXU
    pipeline from the IBU so the exporters can draw them as distinct
    tracks.
    """

    category: ClassVar[Category] = Category.BURST

    t: int
    pe: int
    end: int
    kind: str
    thread: str = ""
    unit: str = "exu"


@dataclass(slots=True)
class PacketSend:
    """A packet handed to the network at cycle ``t``."""

    category: ClassVar[Category] = Category.PACKET

    t: int
    seq: int
    kind: PacketKind
    src: int
    dst: int
    words: int = 2


@dataclass(slots=True)
class PacketHop:
    """A packet reaching one switch output port (detailed model only)."""

    category: ClassVar[Category] = Category.PACKET

    t: int
    seq: int
    node: int
    bit: int


@dataclass(slots=True)
class PacketDeliver:
    """A packet ejected into its destination PE's switching unit."""

    category: ClassVar[Category] = Category.PACKET

    t: int
    seq: int
    kind: PacketKind
    src: int
    dst: int
    latency: int
    hops: int


@dataclass(slots=True)
class MatchEvent:
    """A two-token direct-matching step in matching memory.

    ``matched`` is False when the operand was parked to wait for its
    mate (a *defer*), True when the second arrival fired the match.
    """

    category: ClassVar[Category] = Category.MATCH

    t: int
    pe: int
    frame_id: int
    slot: int
    matched: bool


@dataclass(slots=True)
class BarrierEvent:
    """Barrier protocol progress: ``arrive``, ``hub``, or ``release``."""

    category: ClassVar[Category] = Category.BARRIER

    t: int
    pe: int
    barrier_id: int
    gen: int
    action: str


@dataclass(slots=True)
class CohortEvent:
    """Cohort-compiler progress on a ``compiled=True`` machine.

    Diagnostic: these exist only on the compiled path and are excluded
    from interpreted-vs-compiled comparisons.  ``kind`` is
    ``emc_codegen`` or ``emc_interp`` — an EM-C thread definition
    compiled to Python, or left on the interpreter; ``n`` is the
    definition's parameter count when compiled, else 0.
    """

    category: ClassVar[Category] = Category.COHORT

    t: int
    pe: int
    kind: str
    name: str = ""
    n: int = 0


@dataclass(slots=True)
class ThreadLife:
    """A thread entering a lifecycle state (``created`` on spawn, then
    the :class:`~repro.core.thread.ThreadState` values)."""

    category: ClassVar[Category] = Category.THREAD

    t: int
    pe: int
    tid: int
    name: str
    state: str
