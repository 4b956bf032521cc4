"""Tier selection for compiled thread execution.

One :class:`CohortManager` lives on each machine built with
``MachineConfig(compiled=True)``.  :meth:`CohortManager.instantiate` is
the single entry point, called by ``EMX.create_thread`` in place of the
plain ``func(ctx, *args)`` generator construction, and returns a
generator with the exact same yield protocol — the EXU cannot tell the
difference.

**EM-C threads** (functions tagged ``__emc_thread__`` by
:class:`repro.emc.interp.CompiledProgram`) are compiled once per thread
definition and shared by every instance — the definition's cohort — by
the Python code generator (:mod:`repro.compile.codegen`).  Codegen
bails out with :class:`LoweringError` under exactly the conditions
where its semantics could drift, and the thread then runs on the
reference AST interpreter, so the fallback never changes observable
behaviour.

**Native generator threads** run as written and count as interpreted.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.events import CohortEvent
from .codegen import LoweringError, codegen_thread

__all__ = ["CohortManager"]


class CohortManager:
    """Per-machine compile cache and statistics."""

    def __init__(self, machine) -> None:
        self._machine = machine
        self._obs = machine.obs
        # EM-C cache: (id(CompiledProgram), thread name) -> codegen fn,
        # or None when the definition runs interpreted.
        self._emc_cache: dict[tuple[int, str], Any] = {}
        self._emc_programs: list = []  # keep cache keys' referents alive
        # Counters (reported via summary()):
        self.emc_codegen_threads = 0
        self.emc_interp_threads = 0
        self.gen_interpreted_threads = 0

    # ------------------------------------------------------------------
    # Entry point (called by EMX.create_thread)
    # ------------------------------------------------------------------
    def instantiate(self, func: Callable, ctx, args: tuple):
        """Build the generator for one new thread, compiled when possible."""
        emc = getattr(func, "__emc_thread__", None)
        if emc is not None:
            return self._emc_instantiate(func, emc, ctx, args)
        self.gen_interpreted_threads += 1
        return func(ctx, *args)

    # ------------------------------------------------------------------
    # EM-C front-end: per-definition compile
    # ------------------------------------------------------------------
    def _emc_instantiate(self, func, emc, ctx, args):
        program, tdef = emc
        key = (id(program), tdef.name)
        if key in self._emc_cache:
            fn = self._emc_cache[key]
        else:
            fn = self._emc_cache[key] = self._emc_compile(program, tdef, ctx.pe)
            self._emc_programs.append(program)
        if fn is not None:
            self.emc_codegen_threads += 1
            return fn(ctx, *args)
        self.emc_interp_threads += 1
        return func(ctx, *args)

    def _emc_compile(self, program, tdef, pe: int):
        try:
            fn = codegen_thread(program.ast, tdef, program.env, program.costs)
        except LoweringError:
            self._emit("emc_interp", pe, tdef.name, 0)
            return None
        self._emit("emc_codegen", pe, tdef.name, len(tdef.params))
        return fn

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _emit(self, kind: str, pe: int, name: str, n: int) -> None:
        obs = self._obs
        if obs is not None:
            obs.emit(CohortEvent(self._machine.engine.now, pe, kind, name, n))

    def summary(self) -> dict:
        """The ``MachineReport.cohort`` section (diagnostic only)."""
        compiled = self.emc_codegen_threads
        total = compiled + self.emc_interp_threads + self.gen_interpreted_threads
        return {
            "emc_codegen_threads": compiled,
            "emc_interp_threads": self.emc_interp_threads,
            "gen_interpreted_threads": self.gen_interpreted_threads,
            "occupancy": (compiled / total) if total else 0.0,
        }
