"""Execution Unit: runs thread bursts and performs context switches.

The EXU is event-driven: whenever it is free and the IBU holds a packet,
it dequeues one (FIFO within priority level) and either

* invokes a new thread (``INVOKE``),
* resumes a suspended thread with a read reply (``READ_REPLY`` /
  ``BLOCK_READ_REPLY``) or a local resume (``RESUME``), or
* in EM-4 compatibility mode, services a remote read by itself.

The IBU's ``enqueue`` calls :meth:`ExecutionUnit.notify`, which
schedules one *kick* event for when the EXU is free.  The kick runs once
per packet, so it is kept short: it charges an idle gap only when there
is one, resumes a read reply's thread itself (the other kinds go through
``_dispatch``), and re-kicks while either IBU FIFO holds work.  A burst,
a barrier spin and an EM-4 service each charge their cycles in one
:meth:`~repro.metrics.counters.PECounters.charge_span` call.

A *burst* drives the thread's generator from (re)entry to the next
suspension point, accumulating cycles into the four accounting buckets.
Packets generated mid-burst are injected at the exact cycle offset where
their packet-generation instruction retires.  Idle gaps between bursts
while the processor still has live threads are charged to the
COMMUNICATION bucket — that is the unmasked latency the whole paper is
about.
"""

from __future__ import annotations

import math

from ..core.effects import (
    BarrierWait,
    Compute,
    FusedRead,
    FusedReadPair,
    RemoteRead,
    RemoteReadBlock,
    RemoteReadPair,
    RemoteWrite,
    Spawn,
    SwitchNow,
    TokenAdvance,
    TokenWait,
)
from ..core.thread import EMThread, ThreadState
from ..errors import SchedulerError, ThreadProtocolError
from ..metrics.counters import Bucket, SwitchKind
from ..obs.events import BarrierEvent, BurstSpan, ThreadSwitch
from ..packet import Packet, PacketKind

__all__ = ["ExecutionUnit"]

# Enum members the EXU tests and stores, bound once.  On Python 3.11
# reading a member through its class (``PacketKind.READ_REQ``) is a slow
# attribute lookup, because the enum metaclass defines ``__getattr__``;
# the kick and burst paths read several per packet.
_INVOKE, _RESUME, _WRITE, _SYNC_ARRIVE = (
    PacketKind.INVOKE, PacketKind.RESUME, PacketKind.WRITE, PacketKind.SYNC_ARRIVE
)
_READ_REQ, _BLOCK_READ_REQ = PacketKind.READ_REQ, PacketKind.BLOCK_READ_REQ
_READ_REPLY, _BLOCK_READ_REPLY = PacketKind.READ_REPLY, PacketKind.BLOCK_READ_REPLY
_REMOTE_READ, _ITER_SYNC, _THREAD_SYNC, _EXPLICIT = (
    SwitchKind.REMOTE_READ, SwitchKind.ITER_SYNC, SwitchKind.THREAD_SYNC, SwitchKind.EXPLICIT
)
_READY, _RUNNING, _DONE = ThreadState.READY, ThreadState.RUNNING, ThreadState.DONE
_WAIT_READ, _WAIT_BARRIER, _WAIT_TOKEN = (
    ThreadState.WAIT_READ, ThreadState.WAIT_BARRIER, ThreadState.WAIT_TOKEN
)
_COMMUNICATION, _IDLE = Bucket.COMMUNICATION, Bucket.IDLE


def _invoke_words(n_args: int) -> int:
    """Logical width of an INVOKE packet: template + frame + args words."""
    return 2 * math.ceil((2 + n_args) / 2)


class ExecutionUnit:
    """The thread-running pipeline of one EMC-Y."""

    def __init__(self, proc) -> None:
        self._proc = proc
        # Construction-time caches (machine wiring precedes processor
        # construction and is immutable afterwards): the kick/dispatch
        # path runs once per packet, so every saved attribute chain
        # shows up on the fig6 sweep.
        machine = proc.machine
        self._engine = machine.engine
        self._timing = machine.config.timing
        self._obs = machine.obs
        self._ibu = proc.ibu
        # The IBU's two FIFOs: after each burst the kick tests them
        # directly for more work.
        self._q_high = proc.ibu._q_high
        self._q_normal = proc.ibu._q_normal
        self._continuations = proc.continuations
        self.busy_until = 0
        self._kick_scheduled = False
        self._last_end: int | None = None
        # Bound once: every kick event carries it, and ``self._kick``
        # looked up on the class would allocate a bound method per event.
        self._kick = self._kick

    # ------------------------------------------------------------------
    # Wake-up protocol
    # ------------------------------------------------------------------
    def notify(self) -> None:
        """The IBU queued a packet; make sure a kick is pending."""
        if self._kick_scheduled:
            return
        self._kick_scheduled = True
        engine = self._engine
        now = engine.now
        busy_until = self.busy_until
        engine.schedule_at(busy_until if busy_until > now else now, self._kick)

    def _kick(self) -> None:
        """Run the next queued packet, if the EXU is free.

        A read reply, the commonest packet, resumes its thread right
        here; every other kind goes through :meth:`_dispatch`.
        """
        self._kick_scheduled = False
        now = self._engine.now
        if now < self.busy_until:
            self.notify()
            return
        item = self._ibu.pop()
        if item is None:
            return  # idle; the gap is charged when the next burst starts
        pkt, extra = item
        last_end = self._last_end
        if last_end is not None and now > last_end:
            self._account_gap(last_end, now)
        kind = pkt.kind
        if kind is _READ_REPLY or kind is _BLOCK_READ_REPLY:
            thread = self._continuations.resolve(pkt.address)
            self._run_burst(thread, pkt.data, self._timing.match_invoke + extra)
        else:
            self._dispatch(pkt, extra)
        if self._q_high or self._q_normal:
            self.notify()

    def _account_gap(self, last_end: int, now: int) -> None:
        """Charge the EXU's idle gap from ``last_end`` to ``now``."""
        gap = now - last_end
        counters = self._proc.counters
        if self._proc.live_threads > 0:
            counters.add_cycles(_COMMUNICATION, gap)
            counters.comm_gap_count += 1
            if gap > counters.comm_gap_max:
                counters.comm_gap_max = gap
            obs = self._obs
            if obs is not None:
                obs.emit(BurstSpan(last_end, self._proc.pe, now, "idle"))
        else:
            counters.add_cycles(_IDLE, gap)

    def _switch(self, kind: SwitchKind, thread: EMThread | None = None) -> None:
        """Count one context switch and mirror it onto the event bus."""
        proc = self._proc
        proc.counters.add_switch(kind)
        obs = self._obs
        if obs is not None:
            obs.emit(
                ThreadSwitch(
                    self._engine.now,
                    proc.pe,
                    kind,
                    thread.name if thread is not None else "",
                )
            )

    # ------------------------------------------------------------------
    # Packet dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, pkt: Packet, extra: int) -> None:
        """Run a packet other than a read reply (see :meth:`_kick`)."""
        kind = pkt.kind
        timing = self._timing
        if kind is _INVOKE:
            func_name, args = pkt.data
            thread = self._proc.machine.create_thread(self._proc.pe, func_name, args)
            self._run_burst(thread, None, timing.match_invoke + extra)
        elif kind is _RESUME:
            self._dispatch_resume(pkt, extra)
        elif kind is _READ_REQ or kind is _BLOCK_READ_REQ:
            self._em4_service(pkt, extra)
        else:
            raise SchedulerError(f"EXU cannot handle packet kind {kind}")

    def _dispatch_resume(self, pkt: Packet, extra: int) -> None:
        timing = self._timing
        counters = self._proc.counters
        reason = pkt.data[0]
        if reason == "barrier":
            _, thread, barrier, gen = pkt.data
            if barrier.is_open(self._proc.pe, gen):
                self._switch(_ITER_SYNC, thread)
                self._run_burst(thread, None, timing.match_invoke + extra)
            else:
                # Spin re-check: a full switch through the FIFO.
                engine = self._engine
                cost = timing.match_invoke + timing.barrier_check + extra
                self._switch(_ITER_SYNC, thread)
                counters.sync_stall_cycles += cost
                t0 = engine.now
                self.busy_until = self._last_end = counters.charge_span(t0, 0, 0, cost)
                obs = self._obs
                if obs is not None:
                    obs.emit(
                        BurstSpan(t0, self._proc.pe, self.busy_until, "spin", thread.name)
                    )
                engine.schedule_at(
                    self.busy_until + timing.barrier_recheck_interval,
                    self._proc.ibu.enqueue,
                    pkt,
                )
        elif reason in ("token", "explicit"):
            self._run_burst(pkt.data[1], None, timing.match_invoke + extra)
        else:
            raise SchedulerError(f"unknown resume reason {reason!r}")

    def _em4_service(self, pkt: Packet, extra: int) -> None:
        """EM-4 compatibility: the EXU itself answers a remote read."""
        proc = self._proc
        timing = self._timing
        engine = self._engine
        cost = timing.em4_read_service + extra
        if pkt.kind is _BLOCK_READ_REQ:
            cost += pkt.data[1]  # one cycle per word: data = (cont, count)
        reply = proc.ibu.read_reply(pkt)
        t0 = engine.now
        self.busy_until = self._last_end = proc.counters.charge_span(t0, 0, cost, 0)
        if self._obs is not None:
            self._obs.emit(BurstSpan(t0, proc.pe, self.busy_until, "service"))
        proc.obu.inject_at(self.busy_until, reply)

    # ------------------------------------------------------------------
    # Burst execution
    # ------------------------------------------------------------------
    def _run_burst(self, thread: EMThread, send_value, lead_switch: int) -> None:
        proc = self._proc
        timing = self._timing
        engine = self._engine
        counters = proc.counters
        pe = proc.pe
        obs = self._obs
        # The two per-effect timing constants, hoisted out of the loop.
        pkt_gen = timing.pkt_gen
        reg_save = timing.reg_save

        t0 = engine.now
        comp = 0
        over = 0
        sw = lead_switch
        emits: list[tuple[int, Packet]] = []
        local_resumes: list[Packet] = []  # enqueued at burst end (FIFO tail)
        mid_resumes: list[tuple[int, Packet]] = []  # token wakes, at offset

        thread.transition(_RUNNING)
        gen = thread.gen
        finished = False

        while True:
            try:
                eff = gen.send(send_value)
            except StopIteration:
                finished = True
                break
            send_value = None
            et = type(eff)

            if et is Compute:
                comp += eff.cycles

            elif et is RemoteRead:
                over += pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=_READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=cid,
                        ),
                    )
                )
                counters.reads_issued += 1
                self._switch(_REMOTE_READ, thread)
                thread.transition(_WAIT_READ)
                break

            elif et is RemoteReadPair:
                over += 2 * pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                for slot, addr in ((0, eff.addr_a), (1, eff.addr_b)):
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=_READ_REQ,
                                src=pe,
                                dst=addr.pe,
                                address=addr.packed(),
                                data=("pair", cid, slot),
                            ),
                        )
                    )
                counters.reads_issued += 2
                self._switch(_REMOTE_READ, thread)
                thread.transition(_WAIT_READ)
                break

            elif et is FusedRead:
                # A compiled ``Compute(c)`` + ``RemoteRead(addr)`` pair in
                # one effect: identical accounting, half the yields.
                comp += eff.cycles
                over += pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=_READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=cid,
                        ),
                    )
                )
                counters.reads_issued += 1
                self._switch(_REMOTE_READ, thread)
                thread.transition(_WAIT_READ)
                break

            elif et is FusedReadPair:
                comp += eff.cycles
                over += 2 * pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                for slot, addr in ((0, eff.addr_a), (1, eff.addr_b)):
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=_READ_REQ,
                                src=pe,
                                dst=addr.pe,
                                address=addr.packed(),
                                data=("pair", cid, slot),
                            ),
                        )
                    )
                counters.reads_issued += 2
                self._switch(_REMOTE_READ, thread)
                thread.transition(_WAIT_READ)
                break

            elif et is RemoteReadBlock:
                over += pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=_BLOCK_READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=(cid, eff.count),
                        ),
                    )
                )
                counters.block_reads_issued += 1
                counters.block_words_requested += eff.count
                self._switch(_REMOTE_READ, thread)
                thread.transition(_WAIT_READ)
                break

            elif et is RemoteWrite:
                over += pkt_gen
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=_WRITE,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=eff.value,
                        ),
                    )
                )
                counters.writes_issued += 1

            elif et is Spawn:
                words = _invoke_words(len(eff.args))
                over += pkt_gen * (words // 2)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=_INVOKE,
                            src=pe,
                            dst=eff.pe,
                            data=(eff.func, eff.args),
                            words=words,
                        ),
                    )
                )
                counters.spawns_issued += 1

            elif et is TokenWait:
                if eff.token.holds(eff.seq):
                    comp += timing.int_op  # the successful inline check
                    continue
                sw += reg_save
                self._switch(_THREAD_SYNC, thread)
                eff.token.park(eff.seq, thread)
                thread.transition(_WAIT_TOKEN)
                break

            elif et is TokenAdvance:
                comp += timing.token_update
                waiter = eff.token.advance()
                if waiter is not None:
                    mid_resumes.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=_RESUME,
                                src=pe,
                                dst=pe,
                                data=("token", waiter),
                            ),
                        )
                    )

            elif et is BarrierWait:
                bar = eff.barrier
                sw += timing.barrier_check
                self._switch(_ITER_SYNC, thread)
                gen_no, last_local = bar.arrive(pe)
                if obs is not None:
                    obs.emit(BarrierEvent(engine.now, pe, bar.barrier_id, gen_no, "arrive"))
                if last_local:
                    over += pkt_gen
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=_SYNC_ARRIVE,
                                src=pe,
                                dst=bar.hub,
                                data=(bar.barrier_id, gen_no),
                            ),
                        )
                    )
                thread.transition(_WAIT_BARRIER)
                local_resumes.append(
                    Packet(
                        kind=_RESUME,
                        src=pe,
                        dst=pe,
                        data=("barrier", thread, bar, gen_no),
                    )
                )
                break

            elif et is SwitchNow:
                sw += reg_save
                self._switch(_EXPLICIT, thread)
                thread.transition(_READY)
                local_resumes.append(
                    Packet(kind=_RESUME, src=pe, dst=pe, data=("explicit", thread))
                )
                break

            else:
                raise ThreadProtocolError(
                    f"thread {thread.name} yielded {eff!r}, which is not an Effect"
                )

        if finished:
            self._finish_thread(thread)

        self.busy_until = self._last_end = counters.charge_span(t0, comp, over, sw)
        if obs is not None:
            obs.emit(BurstSpan(t0, pe, self.busy_until, "burst", thread.name))
        if emits:
            inject_at = proc.obu.inject_at
            for off, pkt in emits:
                inject_at(t0 + off, pkt)
        if mid_resumes:
            for off, pkt in mid_resumes:
                engine.schedule_at(t0 + off, proc.ibu.enqueue, pkt)
        for pkt in local_resumes:
            engine.schedule_at(self.busy_until, proc.ibu.enqueue, pkt)

    def _finish_thread(self, thread: EMThread) -> None:
        proc = self._proc
        thread.transition(_DONE)
        proc.live_threads -= 1
        proc.machine.live_threads -= 1
        proc.counters.threads_finished += 1
