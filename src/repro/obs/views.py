"""Derived views over a recorded event stream.

The recorder hands back a flat, time-ordered event list; these helpers
reshape it into the structures the paper's analysis actually uses:

* :func:`packet_spans` — per-packet lifecycle (send → deliver), the
  basis of latency histograms and queue-occupancy profiles that extend
  the aggregate :class:`~repro.network.stats.NetworkStats`;
* :func:`burst_timeline` — per-PE activity spans as
  :class:`~repro.trace.TraceEvent`, feeding the ASCII timeline
  renderer;
* :func:`switch_table` — the per-kind switch-count attribution behind
  the paper's Tables 3/4, reconstructed from the event stream and
  cross-checkable against :class:`~repro.metrics.counters.PECounters`.

Everything here is pure post-processing over plain event records — no
simulator state is consulted, so views work equally on a live recorder
or on events round-tripped through another process.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..metrics.counters import SwitchKind
from ..packet import PacketKind
from ..trace import TraceEvent
from .events import BurstSpan, PacketDeliver, PacketSend, ThreadSwitch

__all__ = [
    "PacketSpan",
    "packet_spans",
    "latency_histogram",
    "percentile_from_hist",
    "queue_depth_profile",
    "burst_timeline",
    "switch_table",
    "format_switch_table",
]


@dataclass(frozen=True, slots=True)
class PacketSpan:
    """One packet's life: injection to ejection."""

    seq: int
    kind: PacketKind
    src: int
    dst: int
    sent: int
    delivered: int
    hops: int

    @property
    def latency(self) -> int:
        """Injection-to-delivery cycles."""
        return self.delivered - self.sent


def packet_spans(events) -> list[PacketSpan]:
    """Pair sends with delivers by packet sequence number.

    Packets whose send or deliver fell outside the recorded window
    (ring eviction, run truncation) are skipped — a span needs both
    endpoints.  Returns spans in delivery order.
    """
    sends: dict[int, PacketSend] = {}
    spans: list[PacketSpan] = []
    for ev in events:
        if type(ev) is PacketSend:
            sends[ev.seq] = ev
        elif type(ev) is PacketDeliver:
            sent = sends.pop(ev.seq, None)
            if sent is not None:
                spans.append(
                    PacketSpan(
                        seq=ev.seq,
                        kind=ev.kind,
                        src=ev.src,
                        dst=ev.dst,
                        sent=sent.t,
                        delivered=ev.t,
                        hops=ev.hops,
                    )
                )
    return spans


def latency_histogram(spans: list[PacketSpan]) -> Counter:
    """``{latency_cycles: packet_count}`` over the given spans."""
    return Counter(span.latency for span in spans)


def percentile_from_hist(hist: Counter, q: float) -> float:
    """The ``q``-quantile (0..1) of an integer-valued histogram.

    Nearest-rank definition: the smallest value whose cumulative count
    reaches ``q`` of the total.  Returns 0.0 for an empty histogram.
    """
    total = sum(hist.values())
    if total == 0:
        return 0.0
    rank = max(1, int(q * total + 0.5))
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return float(value)
    return float(max(hist))  # pragma: no cover - rank <= total by construction


def queue_depth_profile(events) -> tuple[list[tuple[int, int]], int]:
    """In-flight packet depth over time, from send/deliver events.

    Returns ``(steps, max_depth)`` where ``steps`` is a list of
    ``(cycle, depth_after)`` change points.  Delivers recorded without a
    matching send (evicted head of a ring) are ignored so a truncated
    trace never reports a negative depth.
    """
    steps: list[tuple[int, int]] = []
    depth = 0
    max_depth = 0
    outstanding: set[int] = set()
    for ev in events:
        if type(ev) is PacketSend:
            outstanding.add(ev.seq)
            depth += 1
            if depth > max_depth:
                max_depth = depth
            steps.append((ev.t, depth))
        elif type(ev) is PacketDeliver:
            if ev.seq in outstanding:
                outstanding.discard(ev.seq)
                depth -= 1
                steps.append((ev.t, depth))
    return steps, max_depth


#: BurstSpan kinds the EXU timeline understands (the IBU's ``dma`` spans
#: live on a different hardware unit and are excluded from the EXU rows).
_TIMELINE_KINDS = {"burst", "spin", "service", "idle"}


def burst_timeline(events) -> dict[int, list[TraceEvent]]:
    """Per-PE EXU activity as :class:`~repro.trace.TraceEvent` lists.

    The EXU's ``BurstSpan`` events are the one record of its activity,
    so one event stream feeds both the ASCII timeline and the Perfetto
    export.  Only PEs with at least one span get a key.
    """
    traces: dict[int, list[TraceEvent]] = {}
    for ev in events:
        if type(ev) is BurstSpan and ev.unit == "exu" and ev.kind in _TIMELINE_KINDS:
            traces.setdefault(ev.pe, []).append(
                TraceEvent(ev.t, ev.end, ev.kind, ev.thread)
            )
    return traces


def switch_table(events) -> dict[int, dict[SwitchKind, int]]:
    """Per-PE, per-kind context-switch counts from the event stream.

    The observability mirror of ``PECounters.switches`` — the paper's
    Table 3/4 rows.  Equality between this table and the counters is a
    correctness invariant the tests enforce.
    """
    table: dict[int, dict[SwitchKind, int]] = {}
    for ev in events:
        if type(ev) is ThreadSwitch:
            row = table.get(ev.pe)
            if row is None:  # a fresh row per PE, not per event
                row = table[ev.pe] = {k: 0 for k in SwitchKind}
            row[ev.kind] += 1
    return table


def format_switch_table(table: dict[int, dict[SwitchKind, int]]) -> str:
    """Render the switch-attribution table as aligned text."""
    kinds = list(SwitchKind)
    header = ["PE"] + [k.value for k in kinds] + ["total"]
    rows: list[list[str]] = []
    totals = {k: 0 for k in kinds}
    for pe in sorted(table):
        row = table[pe]
        rows.append(
            [str(pe)]
            + [str(row[k]) for k in kinds]
            + [str(sum(row.values()))]
        )
        for k in kinds:
            totals[k] += row[k]
    rows.append(
        ["all"]
        + [str(totals[k]) for k in kinds]
        + [str(sum(totals.values()))]
    )
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
