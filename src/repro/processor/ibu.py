"""Input Buffer Unit: priority packet FIFOs and the by-passing DMA.

Packets arriving from the network land here.  Two levels of priority
FIFOs (8 on-chip packets each; excess spills to an on-memory buffer and
is restored later, costing an extra memory access on dequeue) feed the
EXU in FIFO order — this *is* the hardware thread scheduler.

The IBU's headline feature is the **by-passing DMA**: remote read
requests are serviced entirely inside the IBU→MCU→OBU path, "without
consuming the cycles of the Execution Unit".  The EM-4 compatibility
mode routes read requests to the EXU instead, where each one steals
cycles like a one-instruction thread — the paper's explicit contrast.

Barrier combine traffic (``SYNC_ARRIVE``/``SYNC_RELEASE``) is also
handled at the IBU level: it updates barrier state without waking the
EXU, the way the hardware's packet path touches matching memory.
"""

from __future__ import annotations

from collections import deque

from ..obs.events import BurstSpan
from ..packet import Packet, PacketKind, Priority

__all__ = ["InputBufferUnit"]

# Enum members the receive path tests and stores, bound once: on Python
# 3.11 reading a member through its class is a slow attribute lookup (see
# :mod:`repro.processor.exu`), and ``receive`` tests several per packet.
_READ_REQ, _BLOCK_READ_REQ = PacketKind.READ_REQ, PacketKind.BLOCK_READ_REQ
_READ_REPLY, _READ_REPLY_PAIR, _BLOCK_READ_REPLY = (
    PacketKind.READ_REPLY, PacketKind.READ_REPLY_PAIR, PacketKind.BLOCK_READ_REPLY
)
_WRITE, _SYNC_ARRIVE, _SYNC_RELEASE = (
    PacketKind.WRITE, PacketKind.SYNC_ARRIVE, PacketKind.SYNC_RELEASE
)
_HIGH = Priority.HIGH


class InputBufferUnit:
    """Receive path of one EMC-Y."""

    def __init__(self, proc) -> None:
        self._proc = proc
        # Construction-time caches: the machine wires config/engine/obs
        # before building processors and never swaps them afterwards.
        machine = proc.machine
        self._machine = machine
        self._engine = machine.engine
        self._timing = machine.config.timing
        self._em4 = machine.config.em4_mode
        self._depth = machine.config.ibu_fifo_depth
        self._reply_priority = (
            Priority.HIGH if machine.config.priority_replies else Priority.NORMAL
        )
        # One deque per priority level, highest first (enum-keyed dict
        # lookups were measurable on the receive path).
        self._q_high: deque = deque()
        self._q_normal: deque = deque()
        self._dma_free = 0
        # Bound once: every serviced read schedules a completion event,
        # and ``self._dma_complete`` looked up on the class would
        # allocate a bound method per event.
        self._dma_complete = self._dma_complete

    # ------------------------------------------------------------------
    # Network-facing entry (the Switching Unit hands packets here).
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """A packet arrived from the network at ``engine.now``."""
        self._proc.counters.packets_handled += 1
        kind = pkt.kind
        if kind is _READ_REQ or kind is _BLOCK_READ_REQ:
            if self._em4:
                self.enqueue(pkt)  # EXU will service it, EM-4 style
            else:
                self._dma_service(pkt)
            return
        if kind is _READ_REPLY_PAIR:
            # Two-token direct matching: the Matching Unit parks the
            # first operand without waking the EXU; the second arrival
            # fires the thread with both operands in slot order.
            cid = pkt.address
            mate = self._proc.matching.offer(cid, 0, pkt.data)
            if mate is None:
                return
            (sa, va), (sb, vb) = mate
            values = (va, vb) if sa < sb else (vb, va)
            fire = Packet(
                kind=_READ_REPLY,
                src=pkt.src,
                dst=pkt.dst,
                address=cid,
                data=values,
                priority=pkt.priority,
            )
            self.enqueue(fire)
            return
        if kind is _SYNC_ARRIVE:
            self._machine.barrier_hub_arrive(pkt)
            return
        if kind is _SYNC_RELEASE:
            self._machine.barrier_release(self._proc.pe, pkt)
            return
        if kind is _WRITE:
            # Remote writes complete in the IBU/MCU path, EXU untouched.
            addr = pkt.address & 0xFFFFFFFF
            self._proc.memory.write(addr, pkt.data)
            return
        self.enqueue(pkt)

    # ------------------------------------------------------------------
    # FIFO thread-scheduling queue
    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet) -> None:
        """Queue a packet for the EXU (hardware FIFO scheduling)."""
        q = self._q_high if pkt.priority is _HIGH else self._q_normal
        overflowed = len(q) >= self._depth
        if overflowed:
            self._proc.counters.ibu_overflows += 1
        q.append((pkt, overflowed))
        self._proc.exu.notify()

    def pop(self) -> tuple[Packet, int] | None:
        """Dequeue the next packet; returns (packet, extra_cycles).

        High-priority first, FIFO within a level.  Packets restored from
        the on-memory overflow buffer cost an extra memory access.
        """
        q = self._q_high or self._q_normal
        if q:
            pkt, overflowed = q.popleft()
            extra = self._timing.mem_exchange if overflowed else 0
            return pkt, extra
        return None

    @property
    def queued(self) -> int:
        """Packets waiting for the EXU."""
        return len(self._q_high) + len(self._q_normal)

    # ------------------------------------------------------------------
    # By-passing DMA read service (EM-X's key feature)
    # ------------------------------------------------------------------
    def _dma_service(self, pkt: Packet) -> None:
        timing = self._timing
        engine = self._engine
        if pkt.kind is _READ_REQ:
            words = 2
        else:
            words = 2 * pkt.data[1]  # block read: data = (cont, count)
        cost = timing.ibu_dma_service + max(0, (words - 2) // 2)
        start = max(engine.now, self._dma_free)
        done = start + cost
        self._dma_free = done
        obs = self._machine.obs
        if obs is not None:
            obs.emit(BurstSpan(start, self._proc.pe, done, "dma", unit="ibu"))
        engine.schedule_at(done, self._dma_complete, pkt)

    def _dma_complete(self, pkt: Packet) -> None:
        self._proc.obu.inject(self.read_reply(pkt))

    def read_reply(self, pkt: Packet) -> Packet:
        """Service read request ``pkt`` from local memory; return its reply.

        The one place replies are built, for the by-passing DMA and for
        the EM-4 mode's EXU service alike.
        """
        proc = self._proc
        proc.counters.reads_serviced += 1
        offset = pkt.address & 0xFFFFFFFF
        if pkt.kind is _BLOCK_READ_REQ:
            cont, count = pkt.data
            return Packet(
                kind=_BLOCK_READ_REPLY,
                src=proc.pe,
                dst=pkt.src,
                address=cont,
                data=proc.memory.read_block(offset, count),
                words=2 * count,
                priority=self._reply_priority,
            )
        cont = pkt.data
        if isinstance(cont, tuple):  # ("pair", cid, slot): one half of a read pair
            _, cid, slot = cont
            return Packet(
                kind=_READ_REPLY_PAIR,
                src=proc.pe,
                dst=pkt.src,
                address=cid,
                data=(slot, proc.memory.read(offset)),
                priority=self._reply_priority,
            )
        return Packet(
            kind=_READ_REPLY,
            src=proc.pe,
            dst=pkt.src,
            address=cont,
            data=proc.memory.read(offset),
            priority=self._reply_priority,
        )
