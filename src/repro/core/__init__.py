"""The fine-grain multithreading runtime — the paper's core contribution.

Guest programs are written against the *thread library* model of §2.3:
explicitly-switched threads that issue split-phase remote reads, spawn
threads through packets, and synchronise through barriers and
merge-order tokens.  A thread body is a Python generator; it yields
:mod:`~repro.core.effects` objects and the Execution Unit charges cycles
and mutates machine state accordingly:

* ``yield ctx.read(addr)`` — split-phase remote read: the thread's live
  registers are saved (charged as ``TimingModel.reg_save`` cycles), the
  read-request packet departs, and the EXU pulls the next packet from
  the hardware FIFO.  The reply resumes the thread *in FIFO order*.
  ``ctx.read_pair`` and ``ctx.read_block`` are the two-word matched and
  the block forms.
* ``yield ctx.write(addr, v)`` — remote write; never suspends.
* ``yield ctx.spawn(pe, fn, args)`` — thread invocation by packet.
* ``yield ctx.barrier_wait(bar)`` — iteration synchronisation.
* ``yield ctx.token_wait(tok, seq)`` / ``token_advance`` — thread
  synchronisation (sorting's ordered merge).
* ``yield ctx.switch()`` — explicit context switch to the FIFO tail.
"""

from .continuation import ContinuationTable
from .effects import (
    BarrierWait,
    Compute,
    Effect,
    RemoteRead,
    RemoteReadBlock,
    RemoteReadPair,
    RemoteWrite,
    Spawn,
    SwitchNow,
    TokenAdvance,
    TokenWait,
)
from .registry import ProgramRegistry
from .sync import GlobalBarrier, OrderToken
from .thread import EMThread, ThreadState
from .threadlib import ThreadCtx

__all__ = [
    "Effect",
    "Compute",
    "RemoteRead",
    "RemoteReadPair",
    "RemoteReadBlock",
    "RemoteWrite",
    "Spawn",
    "BarrierWait",
    "TokenWait",
    "TokenAdvance",
    "SwitchNow",
    "EMThread",
    "ThreadState",
    "ContinuationTable",
    "ProgramRegistry",
    "GlobalBarrier",
    "OrderToken",
    "ThreadCtx",
]
