"""Exception hierarchy for the EM-X reproduction library.

Every error raised by this package derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "PlanError",
    "SimulationError",
    "DeadlockError",
    "AddressError",
    "MemoryFault",
    "NetworkError",
    "RoutingError",
    "PacketError",
    "SchedulerError",
    "ThreadProtocolError",
    "BarrierError",
    "ProgramError",
    "EmcSyntaxError",
    "EmcRuntimeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid machine, timing, or experiment configuration."""


class PlanError(ConfigError):
    """An invalid :class:`repro.api.ExecutionPlan`.

    Raised by ``ExecutionPlan.validate()`` (and the entry points that
    funnel through it, ``repro.run(plan=)`` among them) for a malformed
    plan: a non-bool ``compiled``.
    """


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The simulation stalled: live threads remain but no event can fire.

    Raised when the event queue drains while threads are still suspended
    (for example a barrier that can never be released, or a remote read
    whose reply packet was lost).
    """


class AddressError(ReproError):
    """A malformed or out-of-range global address."""


class MemoryFault(ReproError):
    """An access outside a processor's local memory bounds."""


class NetworkError(ReproError):
    """Interconnect-level failure."""


class RoutingError(NetworkError):
    """A packet could not be routed to its destination switch."""


class PacketError(ReproError):
    """A malformed packet (wrong kind, bad payload width, …)."""


class SchedulerError(ReproError):
    """The hardware FIFO thread scheduler was driven incorrectly."""


class ThreadProtocolError(ReproError):
    """A thread body yielded something that is not a valid effect.

    Thread bodies are generators that must yield :class:`repro.core.effects.Effect`
    instances; yielding anything else is a programming error in the
    *guest* program, reported with this dedicated type.
    """


class BarrierError(ReproError):
    """Misuse of an iteration barrier (wrong party count, reuse, …)."""


class ProgramError(ReproError):
    """A guest program violated the machine's execution contract."""


class EmcSyntaxError(ProgramError):
    """Lexing or parsing failure in an EM-C source program."""


class EmcRuntimeError(ProgramError):
    """An EM-C program failed while executing on the machine."""
