"""The cohort compiler's EM-C tier.

EM-C threads are compiled to Python generator functions with the
interpreter's yield protocol, once per thread definition and shared by
every instance:

:mod:`repro.compile.codegen`
    EM-C AST → generated Python generator source.
:mod:`repro.compile.cohort`
    The per-machine manager: codegen, falling back to the interpreter
    for thread shapes codegen declines, and occupancy accounting.
:mod:`repro.compile.differential`
    The interpreted-vs-compiled identity oracle.

Native generator threads run on the interpreter.  Enable with
``MachineConfig(compiled=True)``, ``repro.run(...,
plan=ExecutionPlan(compiled=True))``, or ``repro trace --plan compiled``
on the CLI.
"""

from .cohort import CohortManager
from .codegen import LoweringError, codegen_thread
from .differential import CompileDifferentialHarness, comparable_compile_report

__all__ = [
    "CohortManager",
    "codegen_thread",
    "CompileDifferentialHarness",
    "comparable_compile_report",
    "LoweringError",
]
