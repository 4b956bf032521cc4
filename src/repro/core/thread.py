"""Thread objects: one generator, one state.

A thread "will run to completion unless it encounters any remote memory
operations or explicit thread switching" (§2.3).  The state machine
mirrors that: READY (sitting in the hardware FIFO as a packet), RUNNING
(the EXU is inside its generator), or suspended awaiting a read reply /
barrier release / token grant.  Threads never share registers; the
generator's suspended frame plays the activation frame that holds them
across switches, and the EXU charges the register save in cycles.
"""

from __future__ import annotations

import enum
from typing import Any, Generator

from ..errors import ThreadProtocolError

__all__ = ["ThreadState", "EMThread"]

#: The guest generator type: yields effects, receives resume values.
GuestGen = Generator[Any, Any, Any]


class ThreadState(enum.Enum):
    """Lifecycle of a fine-grain thread."""

    READY = "ready"
    RUNNING = "running"
    WAIT_READ = "wait_read"
    WAIT_BARRIER = "wait_barrier"
    WAIT_TOKEN = "wait_token"
    DONE = "done"

    # Identity hash (C slot): the legal-transition table is consulted
    # twice per burst, and Enum.__hash__ is a Python-level call.
    __hash__ = object.__hash__


#: The legal state graph, built once — ``transition`` runs on every
#: burst entry/exit, so rebuilding this dict per call is hot-path waste.
_LEGAL: dict[ThreadState, tuple[ThreadState, ...]] = {
    ThreadState.READY: (ThreadState.RUNNING,),
    ThreadState.RUNNING: (
        ThreadState.WAIT_READ,
        ThreadState.WAIT_BARRIER,
        ThreadState.WAIT_TOKEN,
        ThreadState.READY,  # explicit SwitchNow
        ThreadState.DONE,
    ),
    ThreadState.WAIT_READ: (ThreadState.RUNNING,),
    ThreadState.WAIT_BARRIER: (ThreadState.RUNNING,),
    ThreadState.WAIT_TOKEN: (ThreadState.RUNNING,),
    ThreadState.DONE: (),
}


class EMThread:
    """One fine-grain thread bound to a processor."""

    __slots__ = ("tid", "pe", "gen", "state", "name", "on_transition")

    def __init__(self, tid: int, pe: int, gen: GuestGen, name: str = "") -> None:
        self.tid = tid
        self.pe = pe
        self.gen = gen
        self.state = ThreadState.READY
        self.name = name or f"t{tid}"
        #: Optional observer ``(thread, new_state) -> None``, called after
        #: every legal transition (installed by the machine when
        #: observability is enabled; ``None`` costs one test per switch).
        self.on_transition = None

    def transition(self, new: ThreadState) -> None:
        """Move to ``new``, enforcing the legal state graph."""
        if new not in _LEGAL[self.state]:
            raise ThreadProtocolError(
                f"illegal thread transition {self.state.value} -> {new.value} for {self.name}"
            )
        self.state = new
        if self.on_transition is not None:
            self.on_transition(self, new)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EMThread({self.name}, pe={self.pe}, state={self.state.value})"
