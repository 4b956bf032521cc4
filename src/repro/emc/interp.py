"""EM-C execution: AST → explicit-switch threads with cycle accounting.

Compiling an EM-C program yields one generator function per ``thread``
definition, directly registrable with :class:`~repro.machine.EMX`.  The
interpreter walks the AST accumulating EMC-Y cycles for every operator,
assignment, branch and memory access (:class:`~repro.emc.costs.EmcCosts`)
and flushes the accumulated budget as a single
:class:`~repro.core.effects.Compute` immediately before any effectful
builtin — so packets depart at the correct cycle offsets and the
thread's run length between remote reads is exactly what its source
implies, the way the paper derives the sorting loop's 12 clocks from
its C code.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import EmcRuntimeError, EmcSyntaxError
from . import ast
from .costs import EmcCosts
from .parser import parse

__all__ = ["CompiledProgram", "compile_program", "load_emc"]


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Interp:
    """One thread's interpreter instance."""

    def __init__(self, ctx, program: ast.Program, env: dict, costs: EmcCosts) -> None:
        self.ctx = ctx
        self.program = program
        self.env = env
        self.costs = costs
        self.pending = 0

    # ------------------------------------------------------------------
    def charge(self, cycles: int) -> None:
        self.pending += cycles

    def flush(self):
        """Yield the accumulated compute budget (if any)."""
        if self.pending:
            cycles, self.pending = self.pending, 0
            yield self.ctx.compute(cycles)

    def fail(self, line: int, message: str) -> EmcRuntimeError:
        return EmcRuntimeError(f"EM-C runtime error at line {line}: {message}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_block(self, block: ast.Block, scope: dict):
        for stmt in block.statements:
            yield from self.exec_stmt(stmt, scope)

    def exec_stmt(self, stmt: ast.Stmt, scope: dict):
        kind = type(stmt)
        if kind is ast.VarDecl or kind is ast.Assign:
            if kind is ast.Assign and stmt.name not in scope:
                raise self.fail(stmt.line, f"assignment to undeclared variable {stmt.name!r}")
            value = yield from self.eval(stmt.value, scope)
            self.charge(self.costs.assign)
            scope[stmt.name] = value
        elif kind is ast.MemStore:
            index = yield from self.eval(stmt.index, scope)
            value = yield from self.eval(stmt.value, scope)
            self.charge(self.costs.mem_index + self.costs.mem_access)
            self.ctx.mem.write(self._as_index(index, stmt.line), value)
        elif kind is ast.ExprStmt:
            yield from self.eval(stmt.expr, scope)
        elif kind is ast.Block:
            yield from self.exec_block(stmt, scope)
        elif kind is ast.If:
            cond = yield from self.eval(stmt.condition, scope)
            self.charge(self.costs.branch)
            if self._truthy(cond):
                yield from self.exec_block(stmt.then_block, scope)
            elif stmt.else_block is not None:
                yield from self.exec_block(stmt.else_block, scope)
        elif kind is ast.While:
            while True:
                cond = yield from self.eval(stmt.condition, scope)
                self.charge(self.costs.branch)
                if not self._truthy(cond):
                    break
                try:
                    yield from self.exec_block(stmt.body, scope)
                except _Break:
                    break
                except _Continue:
                    pass
                self.charge(self.costs.loop_back)
        elif kind is ast.For:
            if stmt.init is not None:
                yield from self.exec_stmt(stmt.init, scope)
            while True:
                if stmt.condition is not None:
                    cond = yield from self.eval(stmt.condition, scope)
                    self.charge(self.costs.branch)
                    if not self._truthy(cond):
                        break
                try:
                    yield from self.exec_block(stmt.body, scope)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    yield from self.exec_stmt(stmt.step, scope)
                self.charge(self.costs.loop_back)
        elif kind is ast.Break:
            raise _Break()
        elif kind is ast.Continue:
            raise _Continue()
        elif kind is ast.Return:
            value = None
            if stmt.value is not None:
                value = yield from self.eval(stmt.value, scope)
            raise _Return(value)
        else:  # pragma: no cover - parser produces only the above
            raise self.fail(getattr(stmt, "line", 0), f"unknown statement {stmt!r}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval(self, expr: ast.Expr, scope: dict):
        kind = type(expr)
        if kind is ast.Literal:
            return expr.value
        if kind is ast.VarRef:
            if expr.name in scope:
                return scope[expr.name]
            if expr.name in self.env:
                return self.env[expr.name]
            raise self.fail(expr.line, f"undefined variable {expr.name!r}")
        if kind is ast.MemLoad:
            index = yield from self.eval(expr.index, scope)
            self.charge(self.costs.mem_index + self.costs.mem_access)
            return self.ctx.mem.read(self._as_index(index, expr.line))
        if kind is ast.BinOp:
            return (yield from self._binop(expr, scope))
        if kind is ast.UnaryOp:
            operand = yield from self.eval(expr.operand, scope)
            self.charge(self.costs.unary_op)
            if expr.op == "-":
                return -operand
            return 0 if self._truthy(operand) else 1
        if kind is ast.Call:
            return (yield from self._call(expr, scope))
        raise self.fail(getattr(expr, "line", 0), f"unknown expression {expr!r}")  # pragma: no cover

    def _binop(self, expr: ast.BinOp, scope: dict):
        op = expr.op
        left = yield from self.eval(expr.left, scope)
        # Short-circuit logicals evaluate the right side conditionally.
        if op == "&&":
            self.charge(self.costs.alu_op)
            if not self._truthy(left):
                return 0
            right = yield from self.eval(expr.right, scope)
            return 1 if self._truthy(right) else 0
        if op == "||":
            self.charge(self.costs.alu_op)
            if self._truthy(left):
                return 1
            right = yield from self.eval(expr.right, scope)
            return 1 if self._truthy(right) else 0
        right = yield from self.eval(expr.right, scope)
        self.charge(self.costs.binop(op))
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    q = abs(left) // abs(right)
                    return q if (left >= 0) == (right >= 0) else -q
                return left / right
            if op == "%":
                if not (isinstance(left, int) and isinstance(right, int)):
                    raise self.fail(expr.line, "'%' needs integer operands")
                return left - right * (left // right if (left >= 0) == (right >= 0)
                                       else -(abs(left) // abs(right)))
            if op == "==":
                return 1 if left == right else 0
            if op == "!=":
                return 1 if left != right else 0
            if op == "<":
                return 1 if left < right else 0
            if op == "<=":
                return 1 if left <= right else 0
            if op == ">":
                return 1 if left > right else 0
            if op == ">=":
                return 1 if left >= right else 0
        except ZeroDivisionError:
            raise self.fail(expr.line, "division by zero") from None
        raise self.fail(expr.line, f"unknown operator {op!r}")  # pragma: no cover

    @staticmethod
    def _truthy(value: Any) -> bool:
        return bool(value)

    def _as_index(self, value: Any, line: int) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.fail(line, f"memory index must be numeric, got {value!r}")
        index = int(value)
        if index != value:
            raise self.fail(line, f"memory index must be integral, got {value!r}")
        return index

    # ------------------------------------------------------------------
    # Builtins
    # ------------------------------------------------------------------
    def _call(self, expr: ast.Call, scope: dict):
        name = expr.name
        args = []
        for arg in expr.args:
            value = yield from self.eval(arg, scope)
            args.append(value)

        def need(n: int) -> None:
            if len(args) != n:
                raise self.fail(expr.line, f"{name}() takes {n} arguments, got {len(args)}")

        ctx = self.ctx
        self.charge(self.costs.call_overhead)

        if name == "rread":
            need(2)
            yield from self.flush()
            return (yield ctx.read(ctx.ga(int(args[0]), int(args[1]))))
        if name == "rread2":
            need(3)
            yield from self.flush()
            pe = int(args[0])
            pair = yield ctx.read_pair(ctx.ga(pe, int(args[1])), ctx.ga(pe, int(args[2])))
            return list(pair)
        if name == "rblock":
            need(3)
            yield from self.flush()
            block = yield ctx.read_block(ctx.ga(int(args[0]), int(args[1])), int(args[2]))
            return list(block)
        if name == "rwrite":
            need(3)
            yield from self.flush()
            yield ctx.write(ctx.ga(int(args[0]), int(args[1])), args[2])
            return 0
        if name == "spawn":
            if len(args) < 2:
                raise self.fail(expr.line, "spawn() needs (pe, name, args...)")
            if not isinstance(args[1], str):
                raise self.fail(expr.line, "spawn() target must be a string thread name")
            if args[1] not in self.program.threads:
                raise self.fail(expr.line, f"spawn of unknown thread {args[1]!r}")
            yield from self.flush()
            yield ctx.spawn(int(args[0]), args[1], *args[2:])
            return 0
        if name == "barrier_wait":
            need(1)
            yield from self.flush()
            yield ctx.barrier_wait(args[0])
            return 0
        if name == "token_wait":
            need(2)
            yield from self.flush()
            yield ctx.token_wait(args[0], int(args[1]))
            return 0
        if name == "token_advance":
            need(1)
            yield from self.flush()
            yield ctx.token_advance(args[0])
            return 0
        if name == "token_reset":
            need(1)
            args[0].reset()  # restart turn numbering (new iteration)
            return 0
        if name == "switch_now":
            need(0)
            yield from self.flush()
            yield ctx.switch()
            return 0
        if name == "compute":
            need(1)
            self.charge(int(args[0]))
            return 0
        if name == "at":
            need(2)
            self.charge(self.costs.mem_index)
            try:
                return args[0][int(args[1])]
            except (TypeError, IndexError):
                raise self.fail(expr.line, f"bad at() access: {args!r}") from None
        if name == "len":
            need(1)
            try:
                return len(args[0])
            except TypeError:
                raise self.fail(expr.line, f"len() of non-sequence {args[0]!r}") from None
        if name == "pe":
            need(0)
            return ctx.pe
        if name == "npes":
            need(0)
            return ctx.n_pes
        if name == "print":
            ctx.state.setdefault("emc_output", []).append(" ".join(str(a) for a in args))
            return 0
        raise self.fail(expr.line, f"unknown builtin {name!r}")

    # ------------------------------------------------------------------
    def run_thread(self, tdef: ast.ThreadDef, args: tuple):
        if len(args) != len(tdef.params):
            raise EmcRuntimeError(
                f"thread {tdef.name!r} takes {len(tdef.params)} arguments, got {len(args)}"
            )
        scope = dict(zip(tdef.params, args))
        try:
            yield from self.exec_block(tdef.body, scope)
        except _Return:
            pass
        except (_Break, _Continue):
            raise EmcRuntimeError(
                f"break/continue outside a loop in thread {tdef.name!r}"
            ) from None
        yield from self.flush()


class CompiledProgram:
    """A compiled EM-C program: thread functions keyed by name."""

    def __init__(self, program: ast.Program, env: dict, costs: EmcCosts) -> None:
        self.ast = program
        self.env = env
        self.costs = costs
        self.functions: dict[str, Callable] = {
            name: self._make(tdef) for name, tdef in program.threads.items()
        }

    def _make(self, tdef: ast.ThreadDef) -> Callable:
        program, env, costs = self.ast, self.env, self.costs

        def thread_func(ctx, *args):
            interp = _Interp(ctx, program, env, costs)
            yield from interp.run_thread(tdef, args)

        thread_func.__name__ = tdef.name
        thread_func.__qualname__ = f"emc.{tdef.name}"
        thread_func.__doc__ = f"EM-C thread {tdef.name!r} (compiled)."
        # Lets the cohort compiler recognise EM-C threads and lower the
        # definition itself.
        thread_func.__emc_thread__ = (self, tdef)
        return thread_func

    def register(self, machine) -> list[str]:
        """Register every thread function with a machine; returns names."""
        return [machine.register(fn, name) for name, fn in self.functions.items()]


def compile_program(
    source: str,
    env: dict | None = None,
    costs: EmcCosts | None = None,
) -> CompiledProgram:
    """Compile EM-C source into thread functions.

    ``env`` provides host objects (barriers, tokens, constants) visible
    as free identifiers inside the program.
    """
    costs = costs or EmcCosts()
    costs.validate()
    program = parse(source)
    if env:
        for key in env:
            if key in program.threads:
                raise EmcSyntaxError(f"env name {key!r} collides with a thread definition")
    return CompiledProgram(program, dict(env or {}), costs)


def load_emc(
    machine,
    source: str,
    env: dict | None = None,
    costs: EmcCosts | None = None,
) -> list[str]:
    """Compile ``source`` and register its threads with ``machine``."""
    return compile_program(source, env, costs).register(machine)
