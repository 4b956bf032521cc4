"""Conservative-window parallel simulation across forked shard workers.

``repro.run(..., plan=ExecutionPlan(shards=K))`` partitions the
machine's PEs into K contiguous shards.  Each shard is a process
running its own :class:`~repro.sim.engine.Engine` over its own PEs,
advancing in *windows* bounded by the fabric's lookahead.  Packet
delivery itself is window-independent: arrivals land at the head of
their cycle via the engine's ``pre_cycle`` hook (see
:mod:`repro.network.sharded`), so the protocol below only decides *how
far* each shard may run between barriers, never *what* it simulates.

The window protocol uses the per-pair lookahead matrix ``L[i][j]``
(:func:`repro.network.sharded.lookahead_matrix`) — the real topology
distance between each pair of shards.  Per barrier:

1. every shard broadcasts its boundary packets (*egress*) plus the
   earliest cycle it has any local work (engine queue or pending
   arrivals), computed *before* ingesting this round's ingress;
2. from the identical set of replies, every shard derives ``na[j]`` —
   the earliest cycle shard *j* can possibly fire anything (its own
   next work or an egress arrival addressed to it) — and relaxes it to
   the fixed point ``ea[j] = min(na[j], min_{k≠j}(ea[k] + L[k][j]))``
   (Bellman–Ford over the K shards): the earliest cycle at which *any*
   chain of cross-shard packets could give shard *j* new work;
3. the fleet *coalesces* to ``T = min(ea)`` — one barrier jumps every
   shard over the global idle gap, and ``T = ∞`` terminates the run
   everywhere at once;
4. each shard ingests the egress addressed to it and runs to its own
   horizon ``min_{k≠me}(ea[k] + L[k][me]) - 1`` — far-apart shard
   pairs legitimately synchronise less often than adjacent ones, and a
   single shard (K = 1) simply runs to completion.

Safety: any packet shard *k* injects after this barrier is injected at
cycle ``>= ea[k]`` and needs delivering on shard *me* no earlier than
``ea[k] + L[k][me]``, i.e. beyond the horizon — the pairwise egress
guard in :meth:`~repro.network.sharded.ShardedOmegaNetwork.send`
enforces exactly this bound.  Progress: the shard with minimal ``ea``
has ``ea = na`` (no chain can undercut the global minimum) and a
horizon at or past it, so every round fires at least one real event.
Windows only pace the engines: the simulated outcome is byte-identical
for every K.

Transport is a full mesh of ``multiprocessing`` pipes between the
coordinating process (shard 0) and ``os.fork``'d children, mirroring
``runner.pool``'s failure policy: a shard that hits a deterministic
error broadcasts it so every process raises the same exception type,
and a shard that just dies surfaces as a loud
:class:`~repro.errors.SimulationError` (closed pipe / nonzero exit),
never a hang or a silent partial result.

At the final barrier the children ship their owned PEs' counters,
memories, traces, network statistics, event logs and window/barrier
accounting to shard 0, which merges them (deterministically — see
:mod:`repro.obs.merge` and
:func:`repro.network.sharded.merge_network_stats`) and builds the one
:class:`~repro.machine.MachineReport` the caller sees.  Every metric in
that report is a pure function of the simulated run, not the partition:
K ∈ {1, 2, 4, …} produce identical reports.  Only the report's
``windows`` diagnostics section (barrier counts and wall times) depends
on K — it is deliberately excluded from the report's serialised form.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass

from ..errors import DeadlockError, SimulationError

__all__ = [
    "ShardSpec",
    "ShardContext",
    "active_context",
    "activate",
    "partition",
    "call_app",
    "run_windowed",
]

_INF = float("inf")


def partition(n_pes: int, count: int) -> tuple[tuple[int, int], ...]:
    """Contiguous, near-equal ``(lo, hi)`` PE ranges for each shard.

    When ``count`` does not divide ``n_pes`` the remainder spreads one
    extra PE over the trailing shards (``(n_pes * i) // count`` bounds),
    so sizes differ by at most one and the ranges always tile
    ``[0, n_pes)`` exactly.
    """
    if count < 1:
        raise SimulationError(f"shard count must be at least 1, got {count}")
    if count > n_pes:
        raise SimulationError(
            f"cannot split {n_pes} PEs into {count} shards: "
            "each shard needs at least one PE"
        )
    return tuple(
        ((n_pes * i) // count, (n_pes * (i + 1)) // count) for i in range(count)
    )


@dataclass(frozen=True)
class ShardSpec:
    """This process's slice of the machine: which PEs it simulates."""

    index: int
    count: int
    bounds: tuple[tuple[int, int], ...]

    def owns(self, pe: int) -> bool:
        """Is ``pe`` simulated by this shard?  Half-open bounds, so with
        uneven partitions a boundary PE belongs to exactly one shard."""
        lo, hi = self.bounds[self.index]
        return lo <= pe < hi

    def shard_of(self, pe: int) -> int:
        """The shard index owning ``pe``; raises on out-of-range PEs
        (a PE silently owned by nobody would drop its packets)."""
        if 0 <= pe < self.bounds[-1][1]:
            for index, (lo, hi) in enumerate(self.bounds):
                if pe < hi:
                    return index
        raise SimulationError(
            f"PE {pe} outside the partitioned machine of {self.bounds[-1][1]} PEs"
        )


@dataclass
class ShardContext:
    """Active shard identity + the barrier transport, set around an app
    call so :class:`~repro.machine.EMX` can discover it at build time."""

    spec: ShardSpec
    exchange: object


_ACTIVE: ShardContext | None = None


def active_context() -> ShardContext | None:
    """The shard context the current process is running under, if any."""
    return _ACTIVE


@contextlib.contextmanager
def activate(ctx: ShardContext):
    """Scope ``ctx`` as the active shard context."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise SimulationError("nested shard contexts are not supported")
    _ACTIVE = ctx
    try:
        yield ctx
    finally:
        _ACTIVE = None


class _ShardChildDone(BaseException):
    """Raised inside child shards once their results have shipped;
    unwinds straight through the app to the fork trampoline.  Derives
    from BaseException so guest-level ``except Exception`` cannot eat
    it."""


class _RemoteShardError(Exception):
    """A peer shard reported a failure over the exchange."""

    def __init__(self, shard: int, type_name: str, message: str) -> None:
        super().__init__(f"shard {shard}: {type_name}: {message}")
        self.shard = shard
        self.type_name = type_name
        self.message = message


def _rehydrate(exc: _RemoteShardError) -> Exception:
    """Re-raise a peer's failure as its original repro error type."""
    from .. import errors

    cls = getattr(errors, exc.type_name, None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = SimulationError
    return cls(f"shard {exc.shard}: {exc.message}")


# ----------------------------------------------------------------------
# Exchanges
# ----------------------------------------------------------------------
class LoopbackExchange:
    """K = 1: the window protocol talking to itself, in-process."""

    def window_barrier(self, payload):
        return [payload]

    def gather_to_root(self, blob):
        return [blob]

    def broadcast_error(self, exc) -> None:
        pass


class PipeExchange:
    """Pairwise-pipe mesh between the K shard processes.

    Window barriers are all-to-all: each pair exchanges its (small)
    payload with the lower-indexed side sending first, sessions ordered
    by ascending peer index — each rendezvous completes without
    requiring progress from a third process, so the pattern cannot
    deadlock, and window payloads stay far below the pipe buffer.  The
    final gather is a plain fan-in to shard 0 (blobs can be large;
    children only send, the root drains them in index order).
    """

    def __init__(self, index: int, count: int, conns: list) -> None:
        self.index = index
        self.count = count
        self.conns = conns  # conns[j] = Connection to shard j (None at own slot)

    def _send(self, peer: int, blob: bytes) -> None:
        try:
            self.conns[peer].send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            raise SimulationError(
                f"shard {peer} crashed (pipe closed while sending): {exc}"
            ) from None

    def _recv(self, peer: int):
        try:
            msg = pickle.loads(self.conns[peer].recv_bytes())
        except (EOFError, OSError) as exc:
            raise SimulationError(
                f"shard {peer} crashed (pipe closed while receiving): {exc}"
            ) from None
        if msg[0] == "err":
            raise _RemoteShardError(peer, msg[1], msg[2])
        return msg

    def window_barrier(self, payload):
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        out = [None] * self.count
        out[self.index] = payload
        for peer in range(self.count):
            if peer == self.index:
                continue
            if self.index < peer:
                self._send(peer, blob)
                out[peer] = self._expect(self._recv(peer), "w", peer)
            else:
                out[peer] = self._expect(self._recv(peer), "w", peer)
                self._send(peer, blob)
        return out

    def gather_to_root(self, blob):
        if self.index == 0:
            blobs = [None] * self.count
            blobs[0] = blob
            for peer in range(1, self.count):
                blobs[peer] = self._expect(self._recv(peer), "done", peer)
            return blobs
        self._send(0, pickle.dumps(("done", blob), protocol=pickle.HIGHEST_PROTOCOL))
        return None

    @staticmethod
    def _expect(msg, tag: str, peer: int):
        if msg[0] != tag:
            raise SimulationError(
                f"shard protocol desync: expected {tag!r} from shard {peer}, "
                f"got {msg[0]!r}"
            )
        return msg[1] if tag == "done" else msg

    def broadcast_error(self, exc) -> None:
        if isinstance(exc, _ShardChildDone):
            return
        try:
            blob = pickle.dumps(("err", type(exc).__name__, str(exc)))
        except Exception:  # pragma: no cover - unpicklable message
            blob = pickle.dumps(("err", type(exc).__name__, "<unprintable>"))
        for peer, conn in enumerate(self.conns):
            if conn is None:
                continue
            try:
                conn.send_bytes(blob)
            except OSError:
                pass


# ----------------------------------------------------------------------
# Entry point: run an app under K shards
# ----------------------------------------------------------------------
def call_app(fn, shards: int | None, kwargs: dict):
    """Call app ``fn(**kwargs)``, optionally under ``shards`` workers.

    ``shards`` of ``None``/``0`` is the legacy sequential path — the
    live network models, untouched.  ``shards >= 1`` selects the
    sharded semantics (see :mod:`repro.network.sharded`); K is clamped
    to the PE count, K = 1 runs it in-process, and K > 1 forks K - 1
    workers that replay the (deterministic, seeded) app setup and
    simulate their own PEs.  One call, one run: the machine a sharded
    app builds cannot be re-run after its report is returned.
    """
    if not shards:
        return fn(**kwargs)
    n_pes = kwargs.get("n_pes")
    if not isinstance(n_pes, int) or n_pes < 1:
        raise SimulationError(f"sharded run needs an explicit n_pes, got {n_pes!r}")
    count = max(1, min(int(shards), n_pes))
    bounds = partition(n_pes, count)
    if count == 1:
        with activate(ShardContext(ShardSpec(0, 1, bounds), LoopbackExchange())):
            return fn(**kwargs)
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only feature
        raise SimulationError("shards > 1 requires a platform with os.fork")

    import multiprocessing

    conns = [[None] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            a, b = multiprocessing.Pipe()
            conns[i][j] = a
            conns[j][i] = b
    sys.stdout.flush()
    sys.stderr.flush()
    pids = []
    for index in range(1, count):
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                _keep_only(conns, index)
                ctx = ShardContext(
                    ShardSpec(index, count, bounds),
                    PipeExchange(index, count, conns[index]),
                )
                with activate(ctx):
                    fn(**kwargs)
            except _ShardChildDone:
                status = 0
            except BaseException:  # noqa: BLE001 - the err broadcast already ran
                status = 1
            os._exit(status)
        pids.append(pid)
    _keep_only(conns, 0)
    try:
        ctx = ShardContext(ShardSpec(0, count, bounds), PipeExchange(0, count, conns[0]))
        with activate(ctx):
            result = fn(**kwargs)
    except BaseException:
        _reap(pids, kill=True)
        raise
    _reap(pids, kill=False)
    return result


def _keep_only(conns: list[list], index: int) -> None:
    """Close every pipe end that does not belong to shard ``index``."""
    for i, row in enumerate(conns):
        if i == index:
            continue
        for j, conn in enumerate(row):
            if conn is not None and j != index:
                conn.close()


def _reap(pids: list[int], kill: bool) -> None:
    for pid in pids:
        if kill:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            _, status = os.waitpid(pid, 0)
        except ChildProcessError:  # pragma: no cover - already reaped
            continue
        if not kill and status != 0:
            raise SimulationError(
                f"shard worker {pid} exited with status {os.waitstatus_to_exitcode(status)}"
            )


# ----------------------------------------------------------------------
# The window protocol (driven from EMX.run)
# ----------------------------------------------------------------------
def _earliest_affect(na: list, matrix) -> list:
    """Relax per-shard next-work bounds over the lookahead matrix.

    ``na[j]`` is the earliest cycle shard *j* fires anything on its own
    (local queue, pending arrivals, or an egress record addressed to it
    this round).  The fixed point

        ``ea[j] = min(na[j], min_{k != j}(ea[k] + matrix[k][j]))``

    additionally admits *chains*: shard *k* may be woken early by a
    third shard and then inject toward *j*, so a direct single-hop bound
    would be unsound.  Bellman–Ford over the K shards; K - 1 passes
    reach the fixed point (the longest useful chain visits each shard
    once), usually far fewer.
    """
    count = len(na)
    ea = list(na)
    for _ in range(count - 1):
        changed = False
        for j in range(count):
            best = ea[j]
            for k in range(count):
                if k == j or ea[k] is _INF:
                    continue
                cand = ea[k] + matrix[k][j]
                if cand < best:
                    best = cand
            if best < ea[j]:
                ea[j] = best
                changed = True
        if not changed:
            break
    return ea


def run_windowed(machine, until: int | None = None):
    """Advance a sharded machine in conservative windows to completion.

    Returns the merged :class:`~repro.machine.MachineReport` in the
    coordinating process; raises :class:`_ShardChildDone` in child
    shards once their results have shipped.
    """
    ctx = machine.shard
    exchange = ctx.exchange
    engine = machine.engine
    net = machine.network
    engine.quiescence_watcher = None  # stuck work is judged globally, post-gather
    spec = ctx.spec
    me = spec.index
    count = spec.count
    matrix = net.pair_lookahead
    # dst PE -> owning shard, for folding egress arrivals into na[].
    shard_of = []
    for index, (lo, hi) in enumerate(spec.bounds):
        shard_of.extend([index] * (hi - lo))
    wstats = {
        "rounds": 0,
        "coalesced": 0,
        "idle_windows": 0,
        "barrier_wall_seconds": 0.0,
        "log": [],
    }
    wlog = wstats["log"]
    perf = time.perf_counter
    prev_horizon: int | None = None
    try:
        while True:
            qnext = engine.queue.peek_time()
            pnext = net.pending_min()
            local_next = qnext if pnext is None else (
                pnext if qnext is None else min(qnext, pnext)
            )
            t0 = perf()
            replies = exchange.window_barrier(("w", net.take_egress(), local_next))
            barrier_dt = perf() - t0
            wstats["barrier_wall_seconds"] += barrier_dt
            # Everyone sees the identical replies, so every shard
            # derives the identical na/ea vectors — no second exchange.
            na = [_INF] * count
            for index, (_, egress, peer_next) in enumerate(replies):
                if peer_next is not None and peer_next < na[index]:
                    na[index] = peer_next
                for record in egress:
                    dst_shard = shard_of[record[5]]
                    if record[0] < na[dst_shard]:
                        na[dst_shard] = record[0]
            for index, (_, egress, _) in enumerate(replies):
                if index != me and egress:
                    net.add_ingress(egress)
            ea = _earliest_affect(na, matrix) if count > 1 else na
            global_next = min(ea)
            if global_next is _INF:
                break
            start = int(global_next)
            if start > engine.max_cycles:
                raise SimulationError(
                    f"simulation exceeded max_cycles={engine.max_cycles} "
                    f"(next event at {start}); runaway guest program?"
                )
            if until is not None and start > until:
                break
            if count > 1:
                horizon = min(
                    ea[k] + matrix[k][me] for k in range(count) if k != me
                ) - 1
            else:
                horizon = until  # K = 1: nothing to synchronise with
            if until is not None and (horizon is None or horizon > until):
                horizon = until
            wstats["rounds"] += 1
            if prev_horizon is not None and start > prev_horizon + 1:
                wstats["coalesced"] += 1
            if na[me] is _INF or (horizon is not None and na[me] > horizon):
                wstats["idle_windows"] += 1
            fired_before = engine.events_fired
            engine.run(until=horizon)
            end = engine.now if horizon is None else horizon
            wlog.append((start, end, barrier_dt, engine.events_fired - fired_before))
            prev_horizon = end
    except _RemoteShardError as exc:
        raise _rehydrate(exc) from None
    except BaseException as exc:
        exchange.broadcast_error(exc)
        raise
    try:
        blobs = exchange.gather_to_root(_gather_blob(machine, wstats))
    except _RemoteShardError as exc:
        raise _rehydrate(exc) from None
    if blobs is None:
        raise _ShardChildDone()
    return _finalize(machine, blobs)


def _gather_blob(machine, window_stats: dict) -> dict:
    """Everything one shard contributes to the merged report."""
    spec = machine.shard.spec
    owned = [p for p in machine.pes if spec.owns(p.pe)]
    log = machine.obs
    return {
        "counters": {p.pe: p.counters for p in owned},
        "memory": {p.pe: p.memory._words for p in owned},
        "trace": {p.pe: p.trace for p in owned},
        "stats": machine.network.stats,
        "born": machine.network.born_counts,
        "arrive": machine.network.arrival_counts,
        "events": machine.engine.events_fired - machine.network.ticks_fired,
        "obs": log.events if log is not None else None,
        "seq_map": machine.network.seq_map if log is not None else {},
        "stuck": machine._stuck_report(),
        "windows": window_stats,
    }


def _finalize(machine, blobs: list[dict]):
    """Merge the shard blobs into the machine and build its report."""
    from ..machine.machine import MachineReport
    from ..network.sharded import merge_network_stats

    spec = machine.shard.spec
    for index, blob in enumerate(blobs):
        if index == spec.index:
            continue
        for pe, counters in blob["counters"].items():
            machine.pes[pe].counters = counters
        for pe, words in blob["memory"].items():
            machine.pes[pe].memory._words = words
        for pe, trace in blob["trace"].items():
            machine.pes[pe].trace = trace
    stuck = [s for blob in blobs if (s := blob["stuck"])]
    if stuck:
        raise DeadlockError("event queue drained with live work: " + "; ".join(stuck))
    machine.network.stats = merge_network_stats(
        [blob["stats"] for blob in blobs],
        [blob["born"] for blob in blobs],
        [blob["arrive"] for blob in blobs],
    )
    real_bus = machine._outer_obs
    if real_bus is not None:
        from ..obs.merge import merge_shard_events

        merged = merge_shard_events(
            [blob["obs"] or [] for blob in blobs],
            [blob["seq_map"] for blob in blobs],
        )
        emit = real_bus.emit
        for event in merged:
            emit(event)
    windows = _windows_section(machine, blobs, real_bus)
    runtime = max((p.counters.last_active for p in machine.pes), default=0)
    for proc in machine.pes:
        proc.counters.check_accounting()
    return MachineReport(
        config=machine.config,
        runtime_cycles=runtime,
        events_fired=sum(blob["events"] for blob in blobs),
        counters=[p.counters for p in machine.pes],
        network=machine.network.stats,
        traces=machine.traces() if machine.config.trace else None,
        windows=windows,
    )


def _windows_section(machine, blobs: list[dict], real_bus) -> dict:
    """Barrier/window diagnostics for ``MachineReport.windows``.

    Round and coalesce counts are identical on every shard (derived
    from the identical barrier replies), so the coordinator's copy
    stands for the fleet; barrier wall time and idle windows are
    genuinely per shard.  Also emits one SHARD-category
    :class:`~repro.obs.events.ShardWindow` per (shard, window) into the
    outer bus — subscribers must opt into the category, which keeps the
    default observation stream K-invariant.
    """
    net = machine.network
    own = blobs[machine.shard.spec.index]["windows"]
    matrix = net.pair_lookahead
    if matrix is not None and len(matrix) > 1:
        off_diag = [
            matrix[i][j]
            for i in range(len(matrix))
            for j in range(len(matrix))
            if i != j
        ]
        look_min, look_max = min(off_diag), max(off_diag)
    else:
        look_min = look_max = net.lookahead
    section = {
        "shards": len(blobs),
        "count": own["rounds"],
        "coalesced": own["coalesced"],
        "lookahead_min": look_min,
        "lookahead_max": look_max,
        "per_shard": [
            {
                "windows": len(blob["windows"]["log"]),
                "idle_windows": blob["windows"]["idle_windows"],
                "barrier_wall_seconds": round(
                    blob["windows"]["barrier_wall_seconds"], 6
                ),
            }
            for blob in blobs
        ],
    }
    if real_bus is not None:
        from ..obs.events import ShardWindow

        slices = sorted(
            (start, end, shard, barrier_dt, fired)
            for shard, blob in enumerate(blobs)
            for start, end, barrier_dt, fired in blob["windows"]["log"]
        )
        emit = real_bus.emit
        for start, end, shard, barrier_dt, fired in slices:
            emit(ShardWindow(start, end, shard, round(barrier_dt * 1e6, 1), fired))
    return section
