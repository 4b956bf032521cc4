"""The cohort compiler's EM-C tiers.

EM-C threads are lowered onto faster steppers with identical yield
protocols, compiled once per thread definition and shared by every
instance:

:mod:`repro.compile.codegen`
    EM-C AST → generated Python generator source (the fast tier).
:mod:`repro.compile.lower_emc` / :mod:`repro.compile.trace`
    EM-C AST → flat effect-opcode trace run by a register VM.
:mod:`repro.compile.cohort`
    The per-machine manager: tier selection (codegen, then the trace
    VM, then the interpreter) and occupancy accounting.
:mod:`repro.compile.differential`
    The interpreted-vs-compiled identity oracle.

Native generator threads run on the interpreter.  Enable with
``MachineConfig(compiled=True)``, ``repro.run(...,
plan=ExecutionPlan(compiled=True))``, or ``--plan compiled`` on the CLI.
"""

from .cohort import CohortManager
from .codegen import codegen_thread
from .differential import CompileDifferentialHarness, comparable_compile_report
from .lower_emc import LoweringError, lower_thread
from .trace import TraceProgram, run_trace

__all__ = [
    "CohortManager",
    "codegen_thread",
    "CompileDifferentialHarness",
    "comparable_compile_report",
    "LoweringError",
    "lower_thread",
    "TraceProgram",
    "run_trace",
]
