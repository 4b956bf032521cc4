"""Execution Unit: runs thread bursts and performs context switches.

The EXU is event-driven: whenever it is free and the IBU holds a packet,
it dequeues one (FIFO within priority level) and either

* invokes a new thread (``INVOKE``),
* resumes a suspended thread with a read reply (``READ_REPLY`` /
  ``BLOCK_READ_REPLY``) or a local resume (``RESUME``), or
* in EM-4 compatibility mode, services a remote read by itself.

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
        self.busy_until = 0
        self._kick_scheduled = False
        self._last_end: int | None = None

    # ------------------------------------------------------------------
    # Wake-up protocol
    # ------------------------------------------------------------------
    def notify(self) -> None:
        """The IBU queued a packet; make sure a kick is pending."""
        if self._kick_scheduled:
            return
        engine = self._engine
        self._kick_scheduled = True
        engine.schedule_at(max(engine.now, self.busy_until), self._kick)

    def _kick(self) -> None:
        self._kick_scheduled = False
        engine = self._engine
        if engine.now < self.busy_until:
            self.notify()
            return
        item = self._proc.ibu.pop()
        if item is None:
            return  # idle; the gap is charged when the next burst starts
        pkt, extra = item
        self._account_gap(engine.now)
        self._dispatch(pkt, extra)
        if self._proc.ibu.queued:
            self.notify()

    def _account_gap(self, now: int) -> None:
        if self._last_end is None or now <= self._last_end:
            return
        gap = now - self._last_end
        counters = self._proc.counters
        if self._proc.live_threads > 0:
            counters.add_cycles(Bucket.COMMUNICATION, gap)
            counters.comm_gap_count += 1
            if gap > counters.comm_gap_max:
                counters.comm_gap_max = gap
            obs = self._obs
            if obs is not None:
                obs.emit(BurstSpan(self._last_end, self._proc.pe, now, "idle"))
        else:
            counters.add_cycles(Bucket.IDLE, gap)

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
        kind = pkt.kind
        timing = self._timing
        if kind is PacketKind.INVOKE:
            func_name, args = pkt.data
            thread = self._proc.machine.create_thread(self._proc.pe, func_name, args)
            self._run_burst(thread, None, timing.match_invoke + extra)
        elif kind in (PacketKind.READ_REPLY, PacketKind.BLOCK_READ_REPLY):
            thread, _tag = self._proc.continuations.resolve(pkt.address)
            self._run_burst(thread, pkt.data, timing.match_invoke + extra)
        elif kind is PacketKind.RESUME:
            self._dispatch_resume(pkt, extra)
        elif kind in (PacketKind.READ_REQ, PacketKind.BLOCK_READ_REQ):
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
                self._switch(SwitchKind.ITER_SYNC, thread)
                self._run_burst(thread, None, timing.match_invoke + extra)
            else:
                # Spin re-check: a full switch through the FIFO.
                engine = self._engine
                cost = timing.match_invoke + timing.barrier_check + extra
                self._switch(SwitchKind.ITER_SYNC, thread)
                counters.add_cycles(Bucket.SWITCHING, cost)
                counters.sync_stall_cycles += cost
                t0 = engine.now
                self.busy_until = t0 + cost
                self._last_end = self.busy_until
                counters.note_active(t0, self.busy_until)
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
        if pkt.kind is PacketKind.BLOCK_READ_REQ:
            cost += pkt.data[1]  # one cycle per word: data = (cont, count)
        reply = proc.ibu.read_reply(pkt)
        proc.counters.add_cycles(Bucket.OVERHEAD, cost)
        t0 = engine.now
        self.busy_until = t0 + cost
        self._last_end = self.busy_until
        proc.counters.note_active(t0, self.busy_until)
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

        thread.transition(ThreadState.RUNNING)
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
                            kind=PacketKind.READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=cid,
                        ),
                    )
                )
                counters.reads_issued += 1
                self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is RemoteReadPair:
                over += 2 * pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread, tag="pair")
                for slot, addr in ((0, eff.addr_a), (1, eff.addr_b)):
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.READ_REQ,
                                src=pe,
                                dst=addr.pe,
                                address=addr.packed(),
                                data=("pair", cid, slot),
                            ),
                        )
                    )
                counters.reads_issued += 2
                self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
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
                            kind=PacketKind.READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=cid,
                        ),
                    )
                )
                counters.reads_issued += 1
                self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is FusedReadPair:
                comp += eff.cycles
                over += 2 * pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread, tag="pair")
                for slot, addr in ((0, eff.addr_a), (1, eff.addr_b)):
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.READ_REQ,
                                src=pe,
                                dst=addr.pe,
                                address=addr.packed(),
                                data=("pair", cid, slot),
                            ),
                        )
                    )
                counters.reads_issued += 2
                self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is RemoteReadBlock:
                over += pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.BLOCK_READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=(cid, eff.count),
                        ),
                    )
                )
                counters.block_reads_issued += 1
                counters.block_words_requested += eff.count
                self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is RemoteWrite:
                over += pkt_gen
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.WRITE,
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
                            kind=PacketKind.INVOKE,
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
                self._switch(SwitchKind.THREAD_SYNC, thread)
                eff.token.park(eff.seq, thread)
                thread.transition(ThreadState.WAIT_TOKEN)
                break

            elif et is TokenAdvance:
                comp += timing.token_update
                waiter = eff.token.advance()
                if waiter is not None:
                    mid_resumes.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.RESUME,
                                src=pe,
                                dst=pe,
                                data=("token", waiter),
                            ),
                        )
                    )

            elif et is BarrierWait:
                bar = eff.barrier
                sw += timing.barrier_check
                self._switch(SwitchKind.ITER_SYNC, thread)
                gen_no, last_local = bar.arrive(pe)
                if obs is not None:
                    obs.emit(BarrierEvent(engine.now, pe, bar.barrier_id, gen_no, "arrive"))
                if last_local:
                    over += pkt_gen
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.SYNC_ARRIVE,
                                src=pe,
                                dst=bar.hub,
                                data=(bar.barrier_id, gen_no),
                            ),
                        )
                    )
                thread.transition(ThreadState.WAIT_BARRIER)
                local_resumes.append(
                    Packet(
                        kind=PacketKind.RESUME,
                        src=pe,
                        dst=pe,
                        data=("barrier", thread, bar, gen_no),
                    )
                )
                break

            elif et is SwitchNow:
                sw += reg_save
                self._switch(SwitchKind.EXPLICIT, thread)
                thread.transition(ThreadState.READY)
                local_resumes.append(
                    Packet(kind=PacketKind.RESUME, src=pe, dst=pe, data=("explicit", thread))
                )
                break

            else:
                raise ThreadProtocolError(
                    f"thread {thread.name} yielded {eff!r}, which is not an Effect"
                )

        if finished:
            self._finish_thread(thread)

        total = comp + over + sw
        self.busy_until = t0 + total
        self._last_end = self.busy_until
        counters.add_cycles(Bucket.COMPUTATION, comp)
        counters.add_cycles(Bucket.OVERHEAD, over)
        counters.add_cycles(Bucket.SWITCHING, sw)
        counters.note_active(t0, self.busy_until)
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
        thread.transition(ThreadState.DONE)
        proc.live_threads -= 1
        proc.machine.live_threads -= 1
        proc.counters.threads_finished += 1
