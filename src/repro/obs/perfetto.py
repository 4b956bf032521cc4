"""Chrome trace-event (Perfetto) export.

Serialises a recorded event stream to the JSON trace-event format that
``ui.perfetto.dev`` (and ``chrome://tracing``) load directly:

* one *process* per PE, with the EXU and the IBU's by-passing DMA as
  separate threads (tracks) — bursts, spins, EM-4 read services, idle
  communication gaps and DMA services render as duration slices;
* a synthetic ``network`` process carrying one async span per packet
  from injection to ejection, named by packet kind;
* flow arrows (``s``/``f`` events) from the sending PE's track to the
  receiving PE's track, so a remote read visually connects the
  suspending burst to the reply that resumes it;
* instant events for context switches (classified as the paper's
  Fig. 9 kinds), matching-store parks/matches, barrier protocol steps
  and thread lifecycle transitions;
* instant ``cohort:*`` markers on the PE tracks for cohort-compiler
  progress (:class:`~repro.obs.events.CohortEvent` — present only on
  ``compiled=True`` runs).

Timestamps are microseconds (the trace-event unit) at the EM-X's
20 MHz clock: one cycle = 0.05 µs.  :func:`validate_perfetto` is the
schema check the tests and the CI smoke step share.
"""

from __future__ import annotations

import json
import pathlib

from ..config import CYCLE_SECONDS
from .events import (
    BarrierEvent,
    BurstSpan,
    CohortEvent,
    MatchEvent,
    PacketDeliver,
    PacketHop,
    PacketSend,
    ThreadLife,
    ThreadSwitch,
)

__all__ = ["to_perfetto", "write_perfetto", "validate_perfetto"]

#: Microseconds per simulated cycle (50 ns at 20 MHz).
CYCLE_US = CYCLE_SECONDS * 1e6

#: Thread (track) ids within a PE process.
EXU_TID = 0
IBU_TID = 1

_UNIT_TID = {"exu": EXU_TID, "ibu": IBU_TID}


def _us(t: int) -> float:
    """Cycle count -> trace-event microseconds (stable rounding)."""
    return round(t * CYCLE_US, 4)


def _metadata(pids: list[int], net_pid: int) -> list[dict]:
    out = []
    for pid in pids:
        out.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f"PE {pid}"}})
        out.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": EXU_TID,
                    "args": {"name": "EXU"}})
        out.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": IBU_TID,
                    "args": {"name": "IBU DMA"}})
    out.append({"ph": "M", "name": "process_name", "pid": net_pid, "tid": 0,
                "args": {"name": "network"}})
    return out


def to_perfetto(events, *, n_pes: int | None = None) -> dict:
    """Build the trace-event JSON object for a recorded event stream.

    ``n_pes`` fixes the PE process list (and the network pseudo-process
    id); when omitted both are inferred from the events themselves.

    Packets whose send or deliver endpoint fell off the recording ring
    are skipped so the exported async spans always pair — a truncated
    trace stays loadable.

    Raw ``Packet.seq`` and barrier ids come from process-global
    counters, so they depend on what ran earlier in the process; the
    export remaps both to dense first-appearance ids to keep the JSON
    deterministic for a given run.
    """
    sent_seqs = {ev.seq for ev in events if type(ev) is PacketSend}
    paired = {ev.seq for ev in events if type(ev) is PacketDeliver and ev.seq in sent_seqs}
    norm: dict[int, int] = {}
    bar_norm: dict[int, int] = {}

    def _id(seq: int) -> int:
        return norm.setdefault(seq, len(norm))

    def _bar_id(barrier_id: int) -> int:
        return bar_norm.setdefault(barrier_id, len(bar_norm))
    pes: set[int] = set(range(n_pes)) if n_pes is not None else set()
    trace: list[dict] = []
    for ev in events:
        et = type(ev)
        if et is BurstSpan:
            pes.add(ev.pe)
            entry = {
                "name": ev.thread or ev.kind,
                "cat": f"burst:{ev.kind}",
                "ph": "X",
                "ts": _us(ev.t),
                "dur": _us(ev.end) - _us(ev.t),
                "pid": ev.pe,
                "tid": _UNIT_TID.get(ev.unit, EXU_TID),
                "args": {"kind": ev.kind, "cycles": ev.end - ev.t},
            }
            trace.append(entry)
        elif et is ThreadSwitch:
            pes.add(ev.pe)
            trace.append({
                "name": f"switch:{ev.kind.value}",
                "cat": "switch",
                "ph": "i",
                "s": "t",
                "ts": _us(ev.t),
                "pid": ev.pe,
                "tid": EXU_TID,
                "args": {"thread": ev.thread},
            })
        elif et is PacketSend:
            pes.add(ev.src)
            pes.add(ev.dst)
            if ev.seq in paired:
                # Materialised below once the PE set (net pid) is known.
                trace.append(ev)
        elif et is PacketDeliver:
            pes.add(ev.src)
            pes.add(ev.dst)
            if ev.seq in paired:
                trace.append(ev)
        elif et is PacketHop:
            trace.append(ev)
        elif et is CohortEvent:
            # Compiler progress markers (one per EM-C tier decision) on
            # the PE track — present only on compiled runs, so default
            # interpreted exports are untouched.
            pes.add(ev.pe)
            trace.append({
                "name": f"cohort:{ev.kind}",
                "cat": "cohort",
                "ph": "i",
                "s": "t",
                "ts": _us(ev.t),
                "pid": ev.pe,
                "tid": EXU_TID,
                "args": {"thread": ev.name, "n": ev.n},
            })
        elif et is MatchEvent:
            pes.add(ev.pe)
            trace.append({
                "name": "match" if ev.matched else "defer",
                "cat": "match",
                "ph": "i",
                "s": "t",
                "ts": _us(ev.t),
                "pid": ev.pe,
                "tid": EXU_TID,
                "args": {"frame": ev.frame_id, "slot": ev.slot},
            })
        elif et is BarrierEvent:
            pes.add(ev.pe)
            trace.append({
                "name": f"barrier:{ev.action}",
                "cat": "barrier",
                "ph": "i",
                "s": "t",
                "ts": _us(ev.t),
                "pid": ev.pe,
                "tid": EXU_TID,
                "args": {"barrier": _bar_id(ev.barrier_id), "gen": ev.gen},
            })
        elif et is ThreadLife:
            pes.add(ev.pe)
            trace.append({
                "name": f"{ev.name}:{ev.state}",
                "cat": "thread",
                "ph": "i",
                "s": "t",
                "ts": _us(ev.t),
                "pid": ev.pe,
                "tid": EXU_TID,
                "args": {"tid": ev.tid},
            })

    pids = sorted(pes)
    net_pid = (max(pids) + 1) if pids else 0
    out: list[dict] = _metadata(pids, net_pid)
    for item in trace:
        et = type(item)
        if et is dict:
            out.append(item)
        elif et is PacketSend:
            name = item.kind.value
            out.append({
                "name": name, "cat": "packet", "ph": "b", "id": _id(item.seq),
                "ts": _us(item.t), "pid": net_pid, "tid": 0,
                "args": {"src": item.src, "dst": item.dst, "words": item.words},
            })
            out.append({
                "name": name, "cat": "flow", "ph": "s", "id": _id(item.seq),
                "ts": _us(item.t), "pid": item.src, "tid": EXU_TID,
            })
        elif et is PacketDeliver:
            name = item.kind.value
            out.append({
                "name": name, "cat": "packet", "ph": "e", "id": _id(item.seq),
                "ts": _us(item.t), "pid": net_pid, "tid": 0,
                "args": {"latency_cycles": item.latency, "hops": item.hops},
            })
            out.append({
                "name": name, "cat": "flow", "ph": "f", "bp": "e", "id": _id(item.seq),
                "ts": _us(item.t), "pid": item.dst, "tid": EXU_TID,
            })
        elif et is PacketHop:
            out.append({
                "name": f"sw{item.node}.{item.bit}", "cat": "hop", "ph": "i",
                "s": "t", "ts": _us(item.t), "pid": net_pid, "tid": 0,
                "args": {"seq": _id(item.seq)},
            })
    return {
        "traceEvents": out,
        "displayTimeUnit": "ns",
        "otherData": {"clock_hz": int(round(1.0 / CYCLE_SECONDS)), "source": "repro.obs"},
    }


def write_perfetto(path, events, *, n_pes: int | None = None) -> pathlib.Path:
    """Export ``events`` to ``path`` as trace-event JSON."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = to_perfetto(events, n_pes=n_pes)
    target.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return target


_VALID_PHASES = {"M", "X", "i", "b", "e", "s", "f"}


def validate_perfetto(obj) -> list[str]:
    """Schema-check a trace-event JSON object; returns problem strings.

    Covers the invariants the viewers actually rely on: a
    ``traceEvents`` list, every event carrying ``ph``/``pid`` (and
    ``ts`` for non-metadata), non-negative durations, and paired async
    begin/end ids.  An empty return value means the trace loads.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"trace must be a JSON object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    open_async: dict[int, int] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if "pid" not in ev:
            problems.append(f"event {i}: missing pid")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"event {i}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
        if ph == "b":
            open_async[ev.get("id")] = open_async.get(ev.get("id"), 0) + 1
        elif ph == "e":
            key = ev.get("id")
            if open_async.get(key, 0) < 1:
                problems.append(f"event {i}: async end without begin (id={key})")
            else:
                open_async[key] -= 1
    dangling = sum(1 for v in open_async.values() if v > 0)
    if dangling:
        problems.append(f"{dangling} async span(s) never ended")
    return problems
