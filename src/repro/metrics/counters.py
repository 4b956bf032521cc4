"""Per-processor counters: cycle buckets and switch classification.

Every EXU cycle lands in exactly one :class:`Bucket`:

* ``COMPUTATION`` — the guest's real work (merge comparisons, FFT
  butterflies, local sorts).
* ``OVERHEAD`` — "the time taken to generate packets" (§5): the
  packet-generation instructions for reads, writes, spawns, replies.
* ``SWITCHING`` — register save/restore, matching-unit invocation, and
  synchronisation spin checks.
* ``COMMUNICATION`` — EXU idle while the processor still has live work
  (outstanding reads, parked threads): the unmasked latency that
  multithreading tries to hide.

Switches are classified as the paper does: every remote read causes a
REMOTE_READ switch; barrier arrivals/spins are ITER_SYNC; merge-order
token waits are THREAD_SYNC.  EXPLICIT covers guest ``SwitchNow``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import SimulationError

__all__ = ["Bucket", "SwitchKind", "PECounters"]


class Bucket(enum.Enum):
    """Destination of one EXU cycle (Fig. 8's four components).

    ``IDLE`` is a fifth, internal bucket: gaps when the processor has no
    live threads at all (before its first spawn arrives, or after its
    last thread died while other PEs finish).  It keeps the accounting
    identity exact but is excluded from the paper's four-way breakdown.
    """

    COMPUTATION = "computation"
    OVERHEAD = "overhead"
    COMMUNICATION = "communication"
    SWITCHING = "switching"
    IDLE = "idle"

    # Identity hash (C slot) instead of Enum's Python-level __hash__:
    # every burst charges 3-4 buckets, so these dict lookups are hot.
    __hash__ = object.__hash__


class SwitchKind(enum.Enum):
    """Context-switch classification (Fig. 9's three curves + explicit)."""

    REMOTE_READ = "remote_read"
    ITER_SYNC = "iter_sync"
    THREAD_SYNC = "thread_sync"
    EXPLICIT = "explicit"

    __hash__ = object.__hash__  # identity hash; see Bucket


# The three buckets an EXU span charges, bound once: on Python 3.11
# reading an enum member through its class is a slow attribute lookup,
# and ``charge_span`` runs once per burst.
_COMPUTATION, _OVERHEAD, _SWITCHING = Bucket.COMPUTATION, Bucket.OVERHEAD, Bucket.SWITCHING


@dataclass
class PECounters:
    """All instrumentation for one processor."""

    pe: int
    cycles: dict[Bucket, int] = field(
        default_factory=lambda: {b: 0 for b in Bucket}
    )
    switches: dict[SwitchKind, int] = field(
        default_factory=lambda: {k: 0 for k in SwitchKind}
    )
    #: Cycles burned on *failed* synchronisation re-checks (barrier
    #: spins).  These are inside the SWITCHING bucket; Fig. 6/7 report
    #: them together with idle as "communication time", because on the
    #: hardware this is time lost to waiting, not useful switching.
    sync_stall_cycles: int = 0
    comm_gap_count: int = 0
    comm_gap_max: int = 0
    reads_issued: int = 0
    block_reads_issued: int = 0
    block_words_requested: int = 0
    writes_issued: int = 0
    spawns_issued: int = 0
    reads_serviced: int = 0
    packets_handled: int = 0
    threads_started: int = 0
    threads_finished: int = 0
    ibu_overflows: int = 0
    #: Cycle at which this PE last did (or will finish) real work.
    last_active: int = 0
    first_active: int | None = None

    # ------------------------------------------------------------------
    def add_cycles(self, bucket: Bucket, cycles: int) -> None:
        """Charge ``cycles`` to one bucket."""
        if cycles < 0:
            raise SimulationError(f"negative cycle charge {cycles} to {bucket}")
        self.cycles[bucket] += cycles

    def charge_span(self, start: int, computation: int, overhead: int, switching: int) -> int:
        """Charge one EXU span beginning at ``start``; returns its end.

        The span's cycles go to the COMPUTATION, OVERHEAD and SWITCHING
        buckets, and the span widens the busy window that
        :meth:`check_accounting` checks them against: one call per
        burst, spin or EM-4 service.
        """
        if computation < 0 or overhead < 0 or switching < 0:
            charges = ((_COMPUTATION, computation), (_OVERHEAD, overhead), (_SWITCHING, switching))
            bucket, cycles = next(charge for charge in charges if charge[1] < 0)
            raise SimulationError(f"negative cycle charge {cycles} to {bucket}")
        buckets = self.cycles
        buckets[_COMPUTATION] += computation
        buckets[_OVERHEAD] += overhead
        buckets[_SWITCHING] += switching
        end = start + computation + overhead + switching
        if self.first_active is None:
            self.first_active = start
        if end > self.last_active:
            self.last_active = end
        return end

    def add_switch(self, kind: SwitchKind, count: int = 1) -> None:
        """Count ``count`` context switches of ``kind``."""
        self.switches[kind] += count

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """Sum of all buckets (the PE's accounted span)."""
        return sum(self.cycles.values())

    @property
    def total_switches(self) -> int:
        """All context switches regardless of kind."""
        return sum(self.switches.values())

    @property
    def busy_span(self) -> int:
        """Cycles between this PE's first and last activity."""
        if self.first_active is None:
            return 0
        return self.last_active - self.first_active

    def check_accounting(self) -> None:
        """Verify buckets cover the busy window exactly.

        Every cycle between first and last activity must be attributed
        to exactly one bucket; a mismatch means the EXU double-charged
        or dropped time, so this raises rather than warns.
        """
        if self.first_active is None:
            return
        if self.total_cycles != self.busy_span:
            raise SimulationError(
                f"PE {self.pe} bucket accounting mismatch: "
                f"buckets={self.total_cycles} busy_span={self.busy_span}"
            )
