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
20 MHz clock: a cycle count ``t`` exports as ``t / CYCLES_PER_US``.
Every entry is built with its keys already in sorted order, so the
``json.dumps(sort_keys=True)`` of :func:`write_perfetto` sorts lists
that are sorted already.  :func:`validate_perfetto` is the schema check
the tests and the CI smoke step share.
"""

from __future__ import annotations

import json
import math
import pathlib

from ..config import CYCLE_SECONDS
from ..errors import ConfigError
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

#: Simulated cycles per trace-event microsecond (20 at 20 MHz).  A whole
#: number, so a timestamp is one exact division: at 20 every timestamp
#: has at most two decimals and equals ``round(t * 0.05, 4)``.
CYCLES_PER_US = round(1e-6 / CYCLE_SECONDS)
if CYCLES_PER_US < 1 or not math.isclose(CYCLES_PER_US * CYCLE_SECONDS, 1e-6, rel_tol=1e-9):
    raise ConfigError(
        f"the trace export needs a whole number of cycles per microsecond; "
        f"one cycle is {CYCLE_SECONDS!r} s"
    )

#: Thread (track) ids within a PE process.
EXU_TID = 0
IBU_TID = 1


def _metadata(pids: list[int], net_pid: int) -> list[dict]:
    out = []
    for pid in pids:
        out.append({"args": {"name": f"PE {pid}"}, "name": "process_name", "ph": "M",
                    "pid": pid, "tid": 0})
        out.append({"args": {"name": "EXU"}, "name": "thread_name", "ph": "M",
                    "pid": pid, "tid": EXU_TID})
        out.append({"args": {"name": "IBU DMA"}, "name": "thread_name", "ph": "M",
                    "pid": pid, "tid": IBU_TID})
    out.append({"args": {"name": "network"}, "name": "process_name", "ph": "M",
                "pid": net_pid, "tid": 0})
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
    pes: set[int] = set(range(n_pes)) if n_pes is not None else set()
    add_pe = pes.add
    out: list[dict] = []
    append = out.append
    # Entries on the network process: its pid is known only once the PE
    # set is, so they hold None until the loop ends.
    on_net: list[dict] = []
    net_append = on_net.append
    per_us = CYCLES_PER_US
    # Enum values are read as ``_value_``: ``.value`` is a Python-level
    # property, two calls per packet or switch.
    for ev in events:
        et = type(ev)
        if et is PacketHop:
            entry = {
                "args": {"seq": norm.setdefault(ev.seq, len(norm))},
                "cat": "hop", "name": f"sw{ev.node}.{ev.bit}", "ph": "i",
                "pid": None, "s": "t", "tid": 0, "ts": ev.t / per_us,
            }
            append(entry)
            net_append(entry)
        elif et is BurstSpan:
            pe = ev.pe
            add_pe(pe)
            kind = ev.kind
            ts = ev.t / per_us
            append({
                "args": {"cycles": ev.end - ev.t, "kind": kind},
                "cat": f"burst:{kind}",
                "dur": ev.end / per_us - ts,
                "name": ev.thread or kind,
                "ph": "X",
                "pid": pe,
                "tid": IBU_TID if ev.unit == "ibu" else EXU_TID,
                "ts": ts,
            })
        elif et is ThreadLife:
            pe = ev.pe
            add_pe(pe)
            append({
                "args": {"tid": ev.tid}, "cat": "thread", "name": f"{ev.name}:{ev.state}",
                "ph": "i", "pid": pe, "s": "t", "tid": EXU_TID, "ts": ev.t / per_us,
            })
        elif et is PacketSend:
            add_pe(ev.src)
            add_pe(ev.dst)
            if ev.seq in paired:
                name = ev.kind._value_
                pkt_id = norm.setdefault(ev.seq, len(norm))
                ts = ev.t / per_us
                entry = {
                    "args": {"dst": ev.dst, "src": ev.src, "words": ev.words},
                    "cat": "packet", "id": pkt_id, "name": name, "ph": "b",
                    "pid": None, "tid": 0, "ts": ts,
                }
                append(entry)
                net_append(entry)
                append({
                    "cat": "flow", "id": pkt_id, "name": name, "ph": "s",
                    "pid": ev.src, "tid": EXU_TID, "ts": ts,
                })
        elif et is PacketDeliver:
            add_pe(ev.src)
            add_pe(ev.dst)
            if ev.seq in paired:
                name = ev.kind._value_
                pkt_id = norm.setdefault(ev.seq, len(norm))
                ts = ev.t / per_us
                entry = {
                    "args": {"hops": ev.hops, "latency_cycles": ev.latency},
                    "cat": "packet", "id": pkt_id, "name": name, "ph": "e",
                    "pid": None, "tid": 0, "ts": ts,
                }
                append(entry)
                net_append(entry)
                append({
                    "bp": "e", "cat": "flow", "id": pkt_id, "name": name, "ph": "f",
                    "pid": ev.dst, "tid": EXU_TID, "ts": ts,
                })
        elif et is ThreadSwitch:
            pe = ev.pe
            add_pe(pe)
            append({
                "args": {"thread": ev.thread}, "cat": "switch",
                "name": f"switch:{ev.kind._value_}", "ph": "i", "pid": pe, "s": "t",
                "tid": EXU_TID, "ts": ev.t / per_us,
            })
        elif et is BarrierEvent:
            pe = ev.pe
            add_pe(pe)
            append({
                "args": {"barrier": bar_norm.setdefault(ev.barrier_id, len(bar_norm)),
                         "gen": ev.gen},
                "cat": "barrier", "name": f"barrier:{ev.action}", "ph": "i", "pid": pe,
                "s": "t", "tid": EXU_TID, "ts": ev.t / per_us,
            })
        elif et is MatchEvent:
            pe = ev.pe
            add_pe(pe)
            append({
                "args": {"frame": ev.frame_id, "slot": ev.slot}, "cat": "match",
                "name": "match" if ev.matched else "defer", "ph": "i", "pid": pe,
                "s": "t", "tid": EXU_TID, "ts": ev.t / per_us,
            })
        elif et is CohortEvent:
            # Compiler progress markers (one per EM-C tier decision) on
            # the PE track — present only on compiled runs, so default
            # interpreted exports are untouched.
            pe = ev.pe
            add_pe(pe)
            append({
                "args": {"n": ev.n, "thread": ev.name}, "cat": "cohort",
                "name": f"cohort:{ev.kind}", "ph": "i", "pid": pe, "s": "t",
                "tid": EXU_TID, "ts": ev.t / per_us,
            })

    pids = sorted(pes)
    net_pid = (max(pids) + 1) if pids else 0
    for entry in on_net:
        entry["pid"] = net_pid
    trace = _metadata(pids, net_pid)
    trace += out
    return {
        "displayTimeUnit": "ns",
        "otherData": {"clock_hz": int(round(1.0 / CYCLE_SECONDS)), "source": "repro.obs"},
        "traceEvents": trace,
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
