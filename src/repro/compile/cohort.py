"""Tier selection for compiled thread execution.

One :class:`CohortManager` lives on each machine built with
``MachineConfig(compiled=True)``.  :meth:`CohortManager.instantiate` is
the single entry point, called by ``EMX.create_thread`` in place of the
plain ``func(ctx, *args)`` generator construction, and returns a
generator with the exact same yield protocol — the EXU cannot tell the
difference.

**EM-C threads** (functions tagged ``__emc_thread__`` by
:class:`repro.emc.interp.CompiledProgram`) are compiled once per thread
definition and shared by every instance — the definition's cohort:
first the Python code generator (:mod:`repro.compile.codegen`), then
the flat trace VM (:mod:`repro.compile.trace`) when codegen declines,
then the reference AST interpreter.  Both compile tiers bail out under
exactly the conditions where their semantics could drift
(:class:`LoweringError`), so the fallback chain never changes
observable behaviour.

**Native generator threads** and threads carrying a call continuation
run on the interpreter and count as interpreted.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.events import CohortEvent
from .codegen import codegen_thread
from .lower_emc import LoweringError, lower_thread
from .trace import run_trace

__all__ = ["CohortManager"]


class CohortManager:
    """Per-machine compile cache and statistics."""

    def __init__(self, machine) -> None:
        self._machine = machine
        self._obs = machine.obs
        # EM-C tier cache: (id(CompiledProgram), thread name) -> (tier, obj)
        self._emc_cache: dict[tuple[int, str], tuple[str, Any]] = {}
        self._emc_programs: list = []  # keep cache keys' referents alive
        # Counters (reported via summary()):
        self.emc_codegen_threads = 0
        self.emc_trace_threads = 0
        self.emc_interp_threads = 0
        self.gen_interpreted_threads = 0

    # ------------------------------------------------------------------
    # Entry point (called by EMX.create_thread)
    # ------------------------------------------------------------------
    def instantiate(self, func: Callable, ctx, args: tuple, cont):
        """Build the generator for one new thread, compiled when possible."""
        if cont is not None:
            # Call-continuation threads are rare and reply-bearing;
            # keep them on the interpreter.
            self.gen_interpreted_threads += 1
            return func(ctx, *args, cont)
        emc = getattr(func, "__emc_thread__", None)
        if emc is not None:
            return self._emc_instantiate(func, emc, ctx, args)
        self.gen_interpreted_threads += 1
        return func(ctx, *args)

    # ------------------------------------------------------------------
    # EM-C front-end: per-definition tiered compile
    # ------------------------------------------------------------------
    def _emc_instantiate(self, func, emc, ctx, args):
        program, tdef = emc
        key = (id(program), tdef.name)
        entry = self._emc_cache.get(key)
        if entry is None:
            entry = self._emc_compile(program, tdef, ctx.pe)
            self._emc_cache[key] = entry
            self._emc_programs.append(program)
        tier, obj = entry
        if tier == "codegen":
            self.emc_codegen_threads += 1
            return obj(ctx, *args)
        if tier == "trace":
            self.emc_trace_threads += 1
            return run_trace(obj, ctx, args)
        self.emc_interp_threads += 1
        return func(ctx, *args)

    def _emc_compile(self, program, tdef, pe: int) -> tuple[str, Any]:
        try:
            fn = codegen_thread(program.ast, tdef, program.env, program.costs)
            self._emit("emc_codegen", pe, tdef.name, len(tdef.params))
            return ("codegen", fn)
        except LoweringError:
            pass
        try:
            prog = lower_thread(program.ast, tdef, program.env, program.costs)
            self._emit("emc_trace", pe, tdef.name, len(prog.ops))
            return ("trace", prog)
        except LoweringError:
            self._emit("emc_interp", pe, tdef.name, 0)
            return ("interp", None)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _emit(self, kind: str, pe: int, name: str, n: int) -> None:
        obs = self._obs
        if obs is not None:
            obs.emit(CohortEvent(self._machine.engine.now, pe, kind, name, n))

    def summary(self) -> dict:
        """The ``MachineReport.cohort`` section (diagnostic only)."""
        compiled = self.emc_codegen_threads + self.emc_trace_threads
        total = compiled + self.emc_interp_threads + self.gen_interpreted_threads
        return {
            "emc_codegen_threads": self.emc_codegen_threads,
            "emc_trace_threads": self.emc_trace_threads,
            "emc_interp_threads": self.emc_interp_threads,
            "gen_interpreted_threads": self.gen_interpreted_threads,
            "occupancy": (compiled / total) if total else 0.0,
        }
