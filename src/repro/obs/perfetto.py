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

Both exports come from one generator that yields every entry in order.
It builds each repeated value once per export (an ``args`` dict, a
formatted name, the timestamp of a cycle) and builds every entry with
its keys already in sorted order, so the encoder's ``sort_keys`` pass
sorts lists that are sorted already.  :func:`to_perfetto` lists the
entries into one document dict; :func:`write_perfetto` encodes them a
batch at a time straight to the file, the same text in memory bounded
by the recording.  :func:`validate_perfetto` is the schema check the
tests and the CI smoke step share.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pathlib
import threading

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


#: Entries per encoder call in :func:`write_perfetto`: besides the
#: recording and the values built once, the writer holds one batch of
#: entries and their text.
_BATCH = 1024

#: Event classes whose ``pe`` adds a PE process (packets add both ends).
_ON_PE = frozenset({BurstSpan, ThreadLife, ThreadSwitch, BarrierEvent, MatchEvent, CohortEvent})


class _Memo(dict):
    """``memo[key]`` builds ``make(key)`` on the first lookup only."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _document(trace_events: list) -> dict:
    return {
        "displayTimeUnit": "ns",
        "otherData": {"clock_hz": int(round(1.0 / CYCLE_SECONDS)), "source": "repro.obs"},
        "traceEvents": trace_events,
    }


def _entries(events, n_pes: int | None):
    """Yield every trace entry of ``events``: the process and track
    metadata, then each event's entries in recording order.

    Every repeated value (an ``args`` dict, a formatted name, the
    timestamp of a cycle) is built once, keyed by the fields it is made
    from, and shared by every entry that carries it.
    """
    # One pass finds the PE set, and so the network pid, before any
    # entry is built, and the packets whose send and deliver both fell
    # inside the recording.
    pes: set[int] = set(range(n_pes)) if n_pes is not None else set()
    add_pe = pes.add
    sent: set[int] = set()
    delivered: set[int] = set()
    for ev in events:
        et = type(ev)
        if et is PacketSend or et is PacketDeliver:
            add_pe(ev.src)
            add_pe(ev.dst)
            (sent if et is PacketSend else delivered).add(ev.seq)
        elif et in _ON_PE:
            add_pe(ev.pe)
    paired = sent & delivered
    del sent, delivered

    pids = sorted(pes)
    net_pid = (pids[-1] + 1) if pids else 0
    for pid in pids:
        yield {"args": {"name": f"PE {pid}"}, "name": "process_name", "ph": "M",
               "pid": pid, "tid": 0}
        yield {"args": {"name": "EXU"}, "name": "thread_name", "ph": "M",
               "pid": pid, "tid": EXU_TID}
        yield {"args": {"name": "IBU DMA"}, "name": "thread_name", "ph": "M",
               "pid": pid, "tid": IBU_TID}
    yield {"args": {"name": "network"}, "name": "process_name", "ph": "M",
           "pid": net_pid, "tid": 0}

    per_us = CYCLES_PER_US
    ts_of = _Memo(lambda t: t / per_us)
    # Dense first-appearance ids for packet seqs and barrier ids.
    pkt_of = _Memo(lambda seq: len(pkt_of))
    barrier_of = _Memo(lambda barrier_id: len(barrier_of))
    hop_args = _Memo(lambda seq: {"seq": pkt_of[seq]})
    hop_name = _Memo(lambda port: f"sw{port[0]}.{port[1]}")
    burst_args = _Memo(lambda key: {"cycles": key[0], "kind": key[1]})
    burst_cat = _Memo(lambda kind: f"burst:{kind}")
    life_args = _Memo(lambda tid: {"tid": tid})
    life_name = _Memo(lambda key: f"{key[0]}:{key[1]}")
    send_args = _Memo(lambda key: {"dst": key[0], "src": key[1], "words": key[2]})
    deliver_args = _Memo(lambda key: {"hops": key[0], "latency_cycles": key[1]})
    switch_args = _Memo(lambda thread: {"thread": thread})
    switch_name = _Memo(lambda kind: f"switch:{kind}")
    barrier_args = _Memo(lambda key: {"barrier": key[0], "gen": key[1]})
    barrier_name = _Memo(lambda action: f"barrier:{action}")
    match_args = _Memo(lambda key: {"frame": key[0], "slot": key[1]})
    cohort_args = _Memo(lambda key: {"n": key[0], "thread": key[1]})
    cohort_name = _Memo(lambda kind: f"cohort:{kind}")
    # Enum values are read as ``_value_``: ``.value`` is a Python-level
    # property, two calls per packet or switch.
    for ev in events:
        et = type(ev)
        if et is PacketHop:
            yield {
                "args": hop_args[ev.seq],
                "cat": "hop", "name": hop_name[ev.node, ev.bit], "ph": "i",
                "pid": net_pid, "s": "t", "tid": 0, "ts": ts_of[ev.t],
            }
        elif et is BurstSpan:
            kind = ev.kind
            ts = ts_of[ev.t]
            yield {
                "args": burst_args[ev.end - ev.t, kind],
                "cat": burst_cat[kind],
                "dur": ts_of[ev.end] - ts,
                "name": ev.thread or kind,
                "ph": "X",
                "pid": ev.pe,
                "tid": IBU_TID if ev.unit == "ibu" else EXU_TID,
                "ts": ts,
            }
        elif et is ThreadLife:
            yield {
                "args": life_args[ev.tid], "cat": "thread",
                "name": life_name[ev.name, ev.state], "ph": "i", "pid": ev.pe,
                "s": "t", "tid": EXU_TID, "ts": ts_of[ev.t],
            }
        elif et is PacketSend:
            if ev.seq in paired:
                name = ev.kind._value_
                pkt_id = pkt_of[ev.seq]
                ts = ts_of[ev.t]
                yield {
                    "args": send_args[ev.dst, ev.src, ev.words],
                    "cat": "packet", "id": pkt_id, "name": name, "ph": "b",
                    "pid": net_pid, "tid": 0, "ts": ts,
                }
                yield {
                    "cat": "flow", "id": pkt_id, "name": name, "ph": "s",
                    "pid": ev.src, "tid": EXU_TID, "ts": ts,
                }
        elif et is PacketDeliver:
            if ev.seq in paired:
                name = ev.kind._value_
                pkt_id = pkt_of[ev.seq]
                ts = ts_of[ev.t]
                yield {
                    "args": deliver_args[ev.hops, ev.latency],
                    "cat": "packet", "id": pkt_id, "name": name, "ph": "e",
                    "pid": net_pid, "tid": 0, "ts": ts,
                }
                yield {
                    "bp": "e", "cat": "flow", "id": pkt_id, "name": name, "ph": "f",
                    "pid": ev.dst, "tid": EXU_TID, "ts": ts,
                }
        elif et is ThreadSwitch:
            yield {
                "args": switch_args[ev.thread], "cat": "switch",
                "name": switch_name[ev.kind._value_], "ph": "i", "pid": ev.pe, "s": "t",
                "tid": EXU_TID, "ts": ts_of[ev.t],
            }
        elif et is BarrierEvent:
            yield {
                "args": barrier_args[barrier_of[ev.barrier_id], ev.gen],
                "cat": "barrier", "name": barrier_name[ev.action], "ph": "i",
                "pid": ev.pe, "s": "t", "tid": EXU_TID, "ts": ts_of[ev.t],
            }
        elif et is MatchEvent:
            yield {
                "args": match_args[ev.frame_id, ev.slot], "cat": "match",
                "name": "match" if ev.matched else "defer", "ph": "i", "pid": ev.pe,
                "s": "t", "tid": EXU_TID, "ts": ts_of[ev.t],
            }
        elif et is CohortEvent:
            # Compiler progress markers (one per EM-C tier decision) on
            # the PE track — present only on compiled runs, so default
            # interpreted exports are untouched.
            yield {
                "args": cohort_args[ev.n, ev.name], "cat": "cohort",
                "name": cohort_name[ev.kind], "ph": "i", "pid": ev.pe, "s": "t",
                "tid": EXU_TID, "ts": ts_of[ev.t],
            }


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

    Entries with equal ``args`` share one dict, and entries at one cycle
    one ``ts`` float: treat the result as read-only.
    """
    return _document(list(_entries(events, n_pes)))


def write_perfetto(path, events, *, n_pes: int | None = None) -> pathlib.Path:
    """Export ``events`` to ``path`` as trace-event JSON.

    The file is the text of ``json.dumps(to_perfetto(events, n_pes=n_pes),
    sort_keys=True, separators=(",", ":"))`` plus a newline, streamed:
    entries are encoded :data:`_BATCH` at a time, so the document is
    never held whole.  The text goes to a sibling temporary file that
    replaces ``path`` only once it is complete; if encoding raises,
    ``path`` is left as it was.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    # "traceEvents" sorts last, so the document's text ends in its "[]}".
    head = encode(_document([]))[:-2]
    entries = _entries(events, n_pes)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(head)
            sep = ""
            while batch := list(itertools.islice(entries, _BATCH)):
                fh.write(sep)
                fh.write(encode(batch)[1:-1])
                sep = ","
            fh.write("]}\n")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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
