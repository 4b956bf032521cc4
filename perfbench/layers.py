"""Outside-in host-time attribution to the simulator's layers.

Nothing in ``src/`` knows about this module.  For the traced run,
:func:`installed` replaces, at class level, the entry points each layer
exposes to the engine and to its neighbours with timing wrappers, and
puts them back afterwards.  Each wrapped call is a span; a layer's
*self time* is its spans' durations minus the durations of the spans
opened inside them (:class:`SpanClock`).  Guest code is timed by
proxying every ``thread.gen`` that ``EMX.create_thread`` returns
(:class:`GuestProxy`), which covers native generators and compiled
cohort steppers alike.

:func:`profile_layers` is the cross-check: it maps every function in a
cProfile of ``Engine.run`` to a module and then to the same layer names,
splitting the self time of helper functions (packets, counters, local
memory, builtins) over their callers.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

#: The layers, in report order.  "sim" is the engine loop and event
#: queue: ``Engine.run`` minus every span below it.
LAYERS = (
    "sim",
    "network",
    "processor.exu",
    "processor.ibu",
    "processor.obu",
    "memory.matching",
    "core.sync",
    "guest",
    "compile",
    "obs",
)


class SpanClock:
    """Nested-span timer charging each span's self time to its layer."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        #: layer -> host ns spent in the layer's own code.
        self.self_ns: Counter = Counter()
        #: layer -> host ns of the layer's outermost spans (not nested in
        #: any other span); ``outer_ns["sim"]`` is the ``Engine.run`` span.
        self.outer_ns: Counter = Counter()
        #: wrapped entry point name -> number of calls.
        self.calls: Counter = Counter()
        self._stack: list[list[int]] = []

    def wrap(self, layer: str, fn, name: str):
        """``fn`` timed as a span of ``layer``; calls counted under ``name``."""
        stack = self._stack
        clock = self.clock
        self_ns = self.self_ns
        outer_ns = self.outer_ns
        calls = self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            children = [0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    outer_ns[layer] += elapsed

        return span

    def self_s(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9

    @property
    def coverage(self) -> float:
        """Sum of all layers' self time over the ``Engine.run`` span."""
        root = self.outer_ns["sim"]
        return sum(self.self_ns.values()) / root if root else 0.0


class GuestProxy:
    """Stands in for a thread's generator; every resume is a guest span.

    The EXU drives threads only through ``send``, which keeps its
    generator meaning: the value goes in, the next effect comes out, and
    ``StopIteration`` (with the return value) propagates unchanged when
    the thread finishes.
    """

    __slots__ = ("send",)

    def __init__(self, gen, spans: SpanClock) -> None:
        self.send = spans.wrap("guest", gen.send, "guest.send")


def entry_points() -> list[tuple[str, type, tuple[str, ...]]]:
    """``(layer, class, method names)`` wrapped in the traced run."""
    from repro.compile.cohort import CohortManager
    from repro.core.sync import GlobalBarrier, OrderToken
    from repro.machine.machine import EMX
    from repro.memory.matching import MatchingMemory
    from repro.network.network import DetailedOmegaNetwork
    from repro.obs.bus import EventBus
    from repro.processor.exu import ExecutionUnit
    from repro.processor.ibu import InputBufferUnit
    from repro.processor.obu import OutputBufferUnit
    from repro.sim.engine import Engine

    return [
        ("sim", Engine, ("run",)),
        # send, plus the hop and delivery handlers it schedules.
        ("network", DetailedOmegaNetwork, ("send", "_hop", "_deliver")),
        # notify and the kick it schedules (bursts, minus guest resumes).
        ("processor.exu", ExecutionUnit, ("notify", "_kick")),
        ("processor.ibu", InputBufferUnit,
         ("receive", "enqueue", "pop", "_dma_service", "_dma_complete")),
        ("processor.obu", OutputBufferUnit, ("inject_at", "inject", "_emit_and_send")),
        ("memory.matching", MatchingMemory, ("offer",)),
        ("core.sync", GlobalBarrier,
         ("arrive", "hub_arrive", "broadcast_release", "release", "is_open")),
        ("core.sync", OrderToken, ("holds", "park", "advance", "reset")),
        ("core.sync", EMX, ("barrier_hub_arrive", "barrier_release")),
        ("compile", CohortManager, ("instantiate",)),
        ("obs", EventBus, ("emit",)),
    ]


_ABSENT = object()


@contextlib.contextmanager
def installed(spans: SpanClock):
    """Wrap every entry point (and proxy guest generators) for the block.

    Machines must be built inside the block: components that bind a
    neighbour's method at construction keep whatever was current then.
    """
    from repro.machine.machine import EMX

    patched: list[tuple[type, str, object]] = []

    def patch(cls: type, name: str, replacement) -> None:
        patched.append((cls, name, cls.__dict__.get(name, _ABSENT)))
        setattr(cls, name, replacement)

    create_thread = EMX.create_thread

    @functools.wraps(create_thread)
    def create_proxied_thread(self, *args):
        thread = create_thread(self, *args)
        if hasattr(thread.gen, "send"):
            thread.gen = GuestProxy(thread.gen, spans)
        return thread

    try:
        for layer, cls, names in entry_points():
            for name in names:
                patch(cls, name, spans.wrap(layer, getattr(cls, name),
                                            f"{cls.__name__}.{name}"))
        patch(EMX, "create_thread", create_proxied_thread)
        yield spans
    finally:
        for cls, name, original in reversed(patched):
            if original is _ABSENT:
                delattr(cls, name)
            else:
                setattr(cls, name, original)


# ----------------------------------------------------------------------
# cProfile cross-check
# ----------------------------------------------------------------------

#: Module prefix -> layer; the longest matching prefix wins.  Modules
#: not listed (packets, counters, local memory, the machine facade,
#: builtins) are helpers: their self time follows their callers.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.network": "network",
    "repro.processor.exu": "processor.exu",
    "repro.processor.ibu": "processor.ibu",
    "repro.processor.obu": "processor.obu",
    "repro.memory.matching": "memory.matching",
    "repro.core.sync": "core.sync",
    "repro.apps": "guest",
    "repro.core.threadlib": "guest",
    "repro.emc": "guest",
    # Trace VM, cohort steppers and live replay run as guest code; only
    # the compilers themselves (below) are compile time.
    "repro.compile": "guest",
    "repro.compile.codegen": "compile",
    "repro.compile.lower_emc": "compile",
    "repro.obs": "obs",
}

#: ``(module, function)`` overrides of :data:`MODULE_LAYERS`, matching
#: the wrapped entry points that live in helper modules.
FUNCTION_LAYERS = {
    ("repro.machine.machine", "barrier_hub_arrive"): "core.sync",
    ("repro.machine.machine", "barrier_release"): "core.sync",
    ("repro.compile.cohort", "instantiate"): "compile",
    ("repro.compile.cohort", "_emc_instantiate"): "compile",
    ("repro.compile.cohort", "_emc_compile"): "compile",
    ("repro.compile.cohort", "_gen_instantiate"): "compile",
}

_PREFIXES = sorted(MODULE_LAYERS, key=len, reverse=True)


def module_of(filename: str) -> str | None:
    """Dotted ``repro`` module name of a source path, else ``None``."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts or not filename.endswith(".py"):
        return None
    tail = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    tail[-1] = tail[-1][:-3]
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail)


def direct_layer(func: tuple) -> str | None:
    """The layer a profiled ``(file, line, name)`` belongs to by itself."""
    filename, _line, name = func
    if filename.startswith("<emc-codegen"):
        return "guest"
    module = module_of(filename)
    if module is None:
        return None
    override = FUNCTION_LAYERS.get((module, name))
    if override is not None:
        return override
    for prefix in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return MODULE_LAYERS[prefix]
    return None


def profile_layers(raw: dict) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    A helper's self time is split over its callers by the time spent in
    it from each caller, recursively; what reaches no layer is "other".
    """
    memo: dict[tuple, dict[str, float]] = {}

    def mix_of(func: tuple) -> dict[str, float]:
        layer = direct_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard while resolving
        callers = raw.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
        mix: Counter = Counter()
        for caller, weight in weights.items():
            for layer, share in mix_of(caller).items():
                mix[layer] += share * weight / total
        memo[func] = dict(mix) if mix else {"other": 1.0}
        return memo[func]

    out: Counter = Counter()
    for func, (_cc, _nc, tottime, _ct, _callers) in raw.items():
        for layer, share in mix_of(func).items():
            out[layer] += tottime * share
    return dict(out)
