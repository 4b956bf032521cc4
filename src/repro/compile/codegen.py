"""EM-C AST → native Python generator functions (the EM-C compile tier).

This module compiles an EM-C thread straight to Python source — guest
variables become Python locals, pure arithmetic stays a single
expression, and every effectful builtin becomes an inline ``yield`` —
and ``exec``\\ s it into a generator function with the same
``(ctx, *args)`` calling convention as the interpreter's thread
functions.

The contract is the one the whole subsystem rests on: charge-for-charge
and effect-for-effect identity with :class:`repro.emc.interp._Interp`.
Constant cycle charges are summed at *codegen* time and spilled into the
``_p`` pending accumulator at region boundaries (branches, loops,
flushes) — legal because pending only becomes observable when flushed as
one ``Compute`` — and every runtime error path reproduces the
interpreter's exception type and message text exactly.  Anything the
generator cannot prove it translates faithfully — a variable only
conditionally declared, a use the interpreter would resolve
dynamically, a builtin whose arity is already wrong in the source,
source nested deeper than CPython can compile — raises
:class:`LoweringError`, and the caller runs that thread on the
interpreter.  Runtime errors the interpreter *would* raise (undefined
variable, bad spawn target) are therefore reproduced by construction:
either codegen proves they cannot happen, or the thread never compiles.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from ..core.effects import (
    BarrierWait,
    Compute,
    FusedRead,
    FusedReadPair,
    RemoteRead,
    RemoteReadPair,
    RemoteWrite,
    Spawn,
    SwitchNow,
    TokenAdvance,
    TokenWait,
)
from ..emc import ast
from ..emc.costs import EmcCosts
from ..errors import EmcRuntimeError, MemoryFault, ProgramError, ReproError
from ..packet.address import GlobalAddress

__all__ = ["LoweringError", "codegen_thread"]


class LoweringError(ReproError):
    """This thread shape cannot be compiled; run it interpreted."""


#: Binary operators with a direct Python spelling (same precedence is
#: irrelevant — codegen fully parenthesises).
_PY_ARITH = {"+": "+", "-": "-", "*": "*"}
_PY_CMPS = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_ATOM = re.compile(r"^(?:[A-Za-z_][A-Za-z0-9_]*|\d+)$")
_INT_LIT = re.compile(r"^\d+$")


def _fail(line: int, message: str) -> EmcRuntimeError:
    return EmcRuntimeError(f"EM-C runtime error at line {line}: {message}")


def _as_index(value: Any, line: int) -> int:
    """Replicates ``_Interp._as_index`` (shared error text matters)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(line, f"memory index must be numeric, got {value!r}")
    index = int(value)
    if index != value:
        raise _fail(line, f"memory index must be integral, got {value!r}")
    return index


def _div(a, b, line):
    """Replicates the interpreter's ``/``: C-truncating for int/int."""
    try:
        if isinstance(a, int) and isinstance(b, int):
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        return a / b
    except ZeroDivisionError:
        raise _fail(line, "division by zero") from None


def _mod(a, b, line):
    """Replicates the interpreter's ``%``: C-truncating remainder."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise _fail(line, "'%' needs integer operands")
    try:
        return a - b * (a // b if (a >= 0) == (b >= 0) else -(abs(a) // abs(b)))
    except ZeroDivisionError:
        raise _fail(line, "division by zero") from None


def _emits(expr) -> bool:
    """Does generating this expression emit statements (vs a pure
    inline Python expression)?  Anything that yields, mutates state, or
    needs a try/except lands as statements; when a *later* sibling
    emits, earlier siblings must be materialised first to keep the
    interpreter's left-to-right evaluation order observable."""
    kind = type(expr)
    if kind is ast.Literal or kind is ast.VarRef:
        return False
    if kind is ast.UnaryOp:
        return _emits(expr.operand)
    if kind is ast.BinOp:
        if expr.op in ("&&", "||"):
            return True
        return _emits(expr.left) or _emits(expr.right)
    if kind is ast.Call:
        return expr.name not in ("pe", "npes")
    return True  # MemLoad and anything unknown


#: Builtins that flush pending and yield one effect.
_EFFECTFUL = frozenset(
    ("rread", "rread2", "rblock", "rwrite", "spawn", "barrier_wait",
     "token_wait", "token_advance", "switch_now")
)


def _collect_decls(node) -> set[str]:
    """Every variable name declared anywhere under ``node``."""
    names: set[str] = set()

    def walk(stmt) -> None:
        kind = type(stmt)
        if kind is ast.VarDecl:
            names.add(stmt.name)
        elif kind is ast.Block:
            for s in stmt.statements:
                walk(s)
        elif kind is ast.If:
            walk(stmt.then_block)
            if stmt.else_block is not None:
                walk(stmt.else_block)
        elif kind is ast.While:
            walk(stmt.body)
        elif kind is ast.For:
            if stmt.init is not None:
                walk(stmt.init)
            if stmt.step is not None:
                walk(stmt.step)
            walk(stmt.body)

    walk(node)
    return names


class _CodeGen:
    def __init__(self, program: ast.Program, tdef: ast.ThreadDef, env: dict, costs: EmcCosts) -> None:
        self.program = program
        self.tdef = tdef
        self.env = env
        self.costs = costs
        self.lines: list[str] = []
        self.depth = 1
        self.acc = 0  # codegen-time constant pending charge
        self.ntmp = 0
        self.declared_somewhere = _collect_decls(tdef.body)
        #: (wrapped, break_flag_name or None) per enclosing loop.
        self.loop_stack: list[tuple[bool, str | None]] = []
        #: exec-globals: helpers, effect types, and env host objects.
        self.globals: dict[str, object] = {
            "Compute": Compute,
            "FusedRead": FusedRead,
            "FusedReadPair": FusedReadPair,
            "RemoteRead": RemoteRead,
            "RemoteReadPair": RemoteReadPair,
            "RemoteWrite": RemoteWrite,
            "Spawn": Spawn,
            "BarrierWait": BarrierWait,
            "TokenWait": TokenWait,
            "TokenAdvance": TokenAdvance,
            "SwitchNow": SwitchNow,
            "GlobalAddress": GlobalAddress,
            "EmcRuntimeError": EmcRuntimeError,
            "MemoryFault": MemoryFault,
            "ProgramError": ProgramError,
            "_idx": _as_index,
            "_fail": _fail,
            "_div": _div,
            "_mod": _mod,
            "_threads": frozenset(program.threads),
        }

    # -- infrastructure ------------------------------------------------
    def w(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def atom(self, e: str) -> str:
        """Materialise ``e`` into a name/number atom (forcing its
        evaluation — and any error it would raise — *now*)."""
        if _ATOM.match(e):
            return e
        t = self.tmp()
        self.w(f"{t} = {e}")
        return t

    def force(self, e: str) -> None:
        """Evaluate ``e`` for its raise-behaviour even though the value
        is discarded (atoms cannot raise once resolvable)."""
        if not _ATOM.match(e):
            self.w(f"_ = {e}")

    def spill(self) -> None:
        if self.acc:
            self.w(f"_p += {self.acc}")
            self.acc = 0

    def flush(self) -> None:
        """Spill and emit the pending→Compute flush (the interpreter's
        ``flush()``, with the shared per-thread Compute cache)."""
        self.spill()
        self.w("if _p:")
        self.w("    _e = _cg(_p)")
        self.w("    if _e is None:")
        self.w("        _e = _cc[_p] = Compute(_p)")
        self.w("    yield _e")
        self.w("    _p = 0")

    def bail(self, node, reason: str) -> LoweringError:
        line = getattr(node, "line", 0)
        return LoweringError(
            f"thread {self.tdef.name!r} line {line}: {reason} (interpreter fallback)"
        )

    # -- declaredness --------------------------------------------------
    def resolve(self, ref: ast.VarRef, declared: set[str]) -> str:
        name = ref.name
        if name in declared:
            return "v_" + name
        if name in self.declared_somewhere:
            raise self.bail(ref, f"use of {name!r} not dominated by its declaration")
        if name in self.env:
            g = "E_" + name
            self.globals[g] = self.env[name]
            return g
        raise self.bail(ref, f"undefined variable {name!r}")

    # -- expressions ---------------------------------------------------
    def gen_expr(self, expr, declared: set[str], as_bool: bool = False) -> str:
        kind = type(expr)
        if kind is ast.Literal:
            return repr(expr.value)
        if kind is ast.VarRef:
            return self.resolve(expr, declared)
        if kind is ast.MemLoad:
            return self.gen_memload(expr, declared)
        if kind is ast.UnaryOp:
            operand = self.gen_expr(expr.operand, declared)
            self.acc += self.costs.unary_op
            if expr.op == "-":
                return f"(-{operand})"
            return f"(0 if {operand} else 1)"
        if kind is ast.BinOp:
            return self.gen_binop(expr, declared, as_bool)
        if kind is ast.Call:
            return self.gen_call(expr, declared)
        raise self.bail(expr, f"unknown expression {expr!r}")

    def gen_memload(self, expr: ast.MemLoad, declared: set[str]) -> str:
        ix = self.atom(self.gen_expr(expr.index, declared))
        self.acc += self.costs.mem_index + self.costs.mem_access
        if _INT_LIT.match(ix):
            i = ix
        else:
            i = self.tmp()
            self.w(f"{i} = {ix} if {ix}.__class__ is int else _idx({ix}, {expr.line})")
        self.w(f"if {i} < 0 or {i} >= _msz:")
        self.w(f'    raise MemoryFault("access [%d, %d) outside memory of %d words" % ({i}, {i} + 1, _msz))')
        t = self.tmp()
        self.w(f"{t} = _mwg({i}, 0)")
        return t

    def gen_binop(self, expr: ast.BinOp, declared: set[str], as_bool: bool) -> str:
        op = expr.op
        if op in ("&&", "||"):
            return self.gen_logic(expr, declared)
        ls = self.gen_expr(expr.left, declared)
        if _emits(expr.right):
            ls = self.atom(ls)
        rs = self.gen_expr(expr.right, declared)
        if op in _PY_ARITH:
            self.acc += self.costs.binop(op)
            return f"({ls} {_PY_ARITH[op]} {rs})"
        if op in _PY_CMPS:
            self.acc += self.costs.binop(op)
            if as_bool:
                return f"({ls} {_PY_CMPS[op]} {rs})"
            return f"(1 if {ls} {_PY_CMPS[op]} {rs} else 0)"
        if op == "/":
            self.acc += self.costs.div_op
            return f"_div({ls}, {rs}, {expr.line})"
        if op == "%":
            self.acc += self.costs.mod_op
            return f"_mod({ls}, {rs}, {expr.line})"
        raise self.bail(expr, f"unknown operator {op!r}")

    def gen_logic(self, expr: ast.BinOp, declared: set[str]) -> str:
        """Short-circuit ``&&`` / ``||``: the right side (and its
        charges) only on the fall-through path, result normalised 1/0."""
        left = self.gen_expr(expr.left, declared)
        self.acc += self.costs.alu_op
        dst = self.tmp()
        self.spill()  # unconditional charges; the branch splits acc
        cond = left if expr.op == "&&" else f"not {left}" if _ATOM.match(left) else f"not ({left})"
        self.w(f"if {cond}:")
        self.depth += 1
        right = self.gen_expr(expr.right, declared, as_bool=True)
        self.spill()
        self.w(f"{dst} = 1 if {right} else 0")
        self.depth -= 1
        self.w("else:")
        self.w(f"    {dst} = {0 if expr.op == '&&' else 1}")
        return dst

    def gen_call(self, expr: ast.Call, declared: set[str]) -> str:
        name = expr.name

        def need(n: int) -> None:
            # Arity is static in the source; a mismatch is a *runtime*
            # error in the interpreter, so reproduce it by falling back.
            if len(expr.args) != n:
                raise self.bail(expr, f"{name}() takes {n} arguments, got {len(expr.args)}")

        if name == "pe":
            need(0)
            self.acc += self.costs.call_overhead
            return "_pe"
        if name == "npes":
            need(0)
            self.acc += self.costs.call_overhead
            return "_npes"
        # Every other builtin emits statements, so argument values are
        # pinned to atoms first (left-to-right, like the interpreter).
        args = [self.atom(self.gen_expr(a, declared)) for a in expr.args]
        self.acc += self.costs.call_overhead
        line = expr.line

        if name in _EFFECTFUL:
            return self.gen_effect(expr, args)
        if name == "token_reset":
            need(1)
            self.w(f"{args[0]}.reset()")
            return "0"
        if name == "compute":
            need(1)
            arg = expr.args[0]
            if type(arg) is ast.Literal and isinstance(arg.value, (int, float)):
                self.acc += int(arg.value)
            else:
                self.w(f"_p += int({args[0]})")
            return "0"
        if name == "at":
            need(2)
            self.acc += self.costs.mem_index
            t = self.tmp()
            self.w("try:")
            self.w(f"    {t} = {args[0]}[int({args[1]})]")
            self.w("except (TypeError, IndexError):")
            self.w(f'    raise _fail({line}, "bad at() access: " + repr([{args[0]}, {args[1]}])) from None')
            return t
        if name == "len":
            need(1)
            t = self.tmp()
            self.w("try:")
            self.w(f"    {t} = len({args[0]})")
            self.w("except TypeError:")
            self.w(f'    raise _fail({line}, "len() of non-sequence " + repr({args[0]})) from None')
            return t
        if name == "print":
            joined = ", ".join(f"str({a})" for a in args)
            self.w(f'_st.setdefault("emc_output", []).append(" ".join(({joined})))')
            return "0"
        raise self.bail(expr, f"unknown builtin {name!r}")

    def gen_effect(self, expr: ast.Call, args: list[str]) -> str:
        """One effectful builtin: flush pending, then an inline yield
        through the interpreter's own validation."""
        name = expr.name
        line = expr.line

        def need(n: int) -> None:
            if len(args) != n:
                raise self.bail(expr, f"{name}() takes {n} arguments, got {len(args)}")

        def pe_check(e: str) -> str:
            x = self.tmp()
            self.w(f"{x} = int({e})")
            self.w(f"if not 0 <= {x} < _npes:")
            self.w(f'    raise ProgramError("global address names PE %d of %d" % ({x}, _npes))')
            return x

        if name == "spawn":
            if len(args) < 2:
                raise self.bail(expr, "spawn() needs (pe, name, args...)")
            target = expr.args[1]
            if type(target) is ast.Literal:
                if not isinstance(target.value, str):
                    raise self.bail(expr, "spawn() target must be a string thread name")
                if target.value not in self.program.threads:
                    raise self.bail(expr, f"spawn of unknown thread {target.value!r}")
            else:
                self.w(f"if not isinstance({args[1]}, str):")
                self.w(f'    raise _fail({line}, "spawn() target must be a string thread name")')
                self.w(f"if {args[1]} not in _threads:")
                self.w(f'    raise _fail({line}, "spawn of unknown thread " + repr({args[1]}))')
            self.flush()
            rest = ", ".join(args[2:])
            rest = f"({rest},)" if rest else "()"
            self.w(f"yield Spawn(int({args[0]}), {args[1]}, {rest})")
            return "0"

        if name == "rread":
            need(2)
            # Fuse a pending compute charge into the read packet.  The
            # conversions are probed first: on any failure the charge
            # still flushes as its own Compute before the unfused path
            # re-raises the identical error (the interpreter's order).
            self.spill()
            a = self.tmp()
            x = self.tmp()
            t = self.tmp()
            self.w(f"{a} = None")
            self.w("if _p:")
            self.w("    try:")
            self.w(f"        {x} = int({args[0]})")
            self.w(f"        if 0 <= {x} < _npes:")
            self.w(f"            {a} = GlobalAddress({x}, int({args[1]}))")
            self.w("    except Exception:")
            self.w(f"        {a} = None")
            self.w(f"if {a} is not None:")
            self.w(f"    {t} = yield FusedRead(_p, {a})")
            self.w("    _p = 0")
            self.w("else:")
            self.w("    if _p:")
            self.w("        _e = _cg(_p)")
            self.w("        if _e is None:")
            self.w("            _e = _cc[_p] = Compute(_p)")
            self.w("        yield _e")
            self.w("        _p = 0")
            self.w(f"    {x} = int({args[0]})")
            self.w(f"    if not 0 <= {x} < _npes:")
            self.w(
                f'        raise ProgramError("global address names PE %d of %d" % ({x}, _npes))'
            )
            self.w(f"    {t} = yield RemoteRead(GlobalAddress({x}, int({args[1]})))")
            return t
        if name == "rread2":
            need(3)
            self.spill()
            a = self.tmp()
            b = self.tmp()
            x = self.tmp()
            t = self.tmp()
            self.w(f"{a} = {b} = None")
            self.w("if _p:")
            self.w("    try:")
            self.w(f"        {x} = int({args[0]})")
            self.w(f"        if 0 <= {x} < _npes:")
            self.w(f"            {a} = GlobalAddress({x}, int({args[1]}))")
            self.w(f"            {b} = GlobalAddress({x}, int({args[2]}))")
            self.w("    except Exception:")
            self.w(f"        {a} = None")
            self.w(f"if {a} is not None and {b} is not None:")
            self.w(f"    {t} = yield FusedReadPair(_p, {a}, {b})")
            self.w("    _p = 0")
            self.w("else:")
            self.w("    if _p:")
            self.w("        _e = _cg(_p)")
            self.w("        if _e is None:")
            self.w("            _e = _cc[_p] = Compute(_p)")
            self.w("        yield _e")
            self.w("        _p = 0")
            self.w(f"    {x} = int({args[0]})")
            self.w(f"    if not 0 <= {x} < _npes:")
            self.w(
                f'        raise ProgramError("global address names PE %d of %d" % ({x}, _npes))'
            )
            self.w(
                f"    {t} = yield RemoteReadPair(GlobalAddress({x}, int({args[1]})),"
                f" GlobalAddress({x}, int({args[2]})))"
            )
            self.w(f"{t} = list({t})")
            return t
        self.flush()
        if name == "rblock":
            need(3)
            t = self.tmp()
            self.w(f"{t} = yield ctx.read_block(ctx.ga(int({args[0]}), int({args[1]})), int({args[2]}))")
            self.w(f"{t} = list({t})")
            return t
        if name == "rwrite":
            need(3)
            x = pe_check(args[0])
            self.w(f"yield RemoteWrite(GlobalAddress({x}, int({args[1]})), {args[2]})")
            return "0"
        if name == "barrier_wait":
            need(1)
            self.w(f"yield BarrierWait({args[0]})")
            return "0"
        if name == "token_wait":
            need(2)
            self.w(f"yield TokenWait({args[0]}, int({args[1]}))")
            return "0"
        if name == "token_advance":
            need(1)
            self.w(f"yield TokenAdvance({args[0]})")
            return "0"
        # switch_now
        need(0)
        self.w("yield SwitchNow()")
        return "0"

    # -- statements ----------------------------------------------------
    def gen_block(self, block: ast.Block, declared: set[str]) -> None:
        for stmt in block.statements:
            self.gen_stmt(stmt, declared)

    def _indented(self, block: ast.Block, declared: set[str]) -> None:
        """Generate a suite one level in; never leaves it empty."""
        self.depth += 1
        mark = len(self.lines)
        self.gen_block(block, declared)
        self.spill()
        if len(self.lines) == mark:
            self.w("pass")
        self.depth -= 1

    def gen_stmt(self, stmt, declared: set[str]) -> None:
        kind = type(stmt)
        if kind is ast.VarDecl or kind is ast.Assign:
            if kind is ast.Assign and stmt.name not in declared:
                raise self.bail(stmt, f"assignment to possibly-undeclared {stmt.name!r}")
            # A VarDecl's value may still reference an *env* binding of
            # the same name (scope-then-env), so it is generated before
            # the name becomes a local.
            value = self.gen_expr(stmt.value, declared)
            self.acc += self.costs.assign
            declared.add(stmt.name)
            self.w(f"v_{stmt.name} = {value}")
        elif kind is ast.MemStore:
            # Index pins before the value evaluates (interpreter order).
            ix = self.atom(self.gen_expr(stmt.index, declared))
            val = self.atom(self.gen_expr(stmt.value, declared))
            self.acc += self.costs.mem_index + self.costs.mem_access
            if _INT_LIT.match(ix):
                i = ix
            else:
                i = self.tmp()
                self.w(f"{i} = {ix} if {ix}.__class__ is int else _idx({ix}, {stmt.line})")
            self.w(f"if {i} < 0 or {i} >= _msz:")
            self.w(f'    raise MemoryFault("access [%d, %d) outside memory of %d words" % ({i}, {i} + 1, _msz))')
            self.w(f"_mw[{i}] = {val}")
        elif kind is ast.ExprStmt:
            self.force(self.gen_expr(stmt.expr, declared))
        elif kind is ast.Block:
            self.gen_block(stmt, declared)
        elif kind is ast.If:
            cond = self.gen_expr(stmt.condition, declared, as_bool=True)
            self.acc += self.costs.branch
            self.spill()
            self.w(f"if {cond}:")
            then_declared = set(declared)
            self._indented(stmt.then_block, then_declared)
            if stmt.else_block is not None:
                self.w("else:")
                else_declared = set(declared)
                self._indented(stmt.else_block, else_declared)
                declared |= then_declared & else_declared
        elif kind is ast.While:
            self.spill()
            self.w("while 1:")
            self.depth += 1
            cond = self.gen_expr(stmt.condition, declared, as_bool=True)
            self.acc += self.costs.branch
            self.spill()
            cond = cond if _ATOM.match(cond) else f"({cond})"
            self.w(f"if not {cond}:")
            self.w("    break")
            self.gen_loop_body(stmt.body, declared)
            self.acc += self.costs.loop_back
            self.spill()
            self.depth -= 1
        elif kind is ast.For:
            if stmt.init is not None:
                self.gen_stmt(stmt.init, declared)
            self.spill()
            self.w("while 1:")
            self.depth += 1
            if stmt.condition is not None:
                cond = self.gen_expr(stmt.condition, declared, as_bool=True)
                self.acc += self.costs.branch
                self.spill()
                cond = cond if _ATOM.match(cond) else f"({cond})"
                self.w(f"if not {cond}:")
                self.w("    break")
            self.gen_loop_body(stmt.body, declared)
            if stmt.step is not None:
                self.gen_stmt(stmt.step, set(declared))
            self.acc += self.costs.loop_back
            self.spill()
            self.depth -= 1
        elif kind is ast.Break:
            if not self.loop_stack:
                raise self.bail(stmt, "break outside a loop")
            wrapped, flag = self.loop_stack[-1]
            self.spill()
            if wrapped:
                self.w(f"{flag} = 1")
            self.w("break")
        elif kind is ast.Continue:
            if not self.loop_stack:
                raise self.bail(stmt, "continue outside a loop")
            wrapped, _flag = self.loop_stack[-1]
            self.spill()
            if not wrapped:
                raise self.bail(stmt, "continue outside its loop body")  # pragma: no cover
            self.w("break")
        elif kind is ast.Return:
            if stmt.value is not None:
                self.force(self.gen_expr(stmt.value, declared))
            self.flush()
            self.w("return")
        else:
            raise self.bail(stmt, f"unknown statement {stmt!r}")

    def gen_loop_body(self, body: ast.Block, declared: set[str]) -> None:
        """Loop body with EM-C break/continue semantics.

        ``continue`` must still reach the step and ``loop_back`` charge,
        so a body containing one runs inside a single-pass ``for``
        wrapper whose ``break`` is the continue; a real ``break`` then
        sets a flag checked right after the wrapper.  A body with only
        ``break`` maps straight onto Python's (both skip ``loop_back``).
        """
        has_break, has_continue = _scan_bc(body)
        body_declared = set(declared)
        if not has_continue:
            self.loop_stack.append((False, None))
            mark = len(self.lines)
            self.gen_block(body, body_declared)
            self.spill()
            if len(self.lines) == mark:
                self.w("pass")
            self.loop_stack.pop()
            return
        flag = None
        if has_break:
            flag = f"_brk{len(self.loop_stack)}"
            self.w(f"{flag} = 0")
        self.w(f"for _l{len(self.loop_stack)} in (0,):")
        self.loop_stack.append((True, flag))
        self._indented(body, body_declared)
        self.loop_stack.pop()
        if has_break:
            self.w(f"if {flag}:")
            self.w("    break")

    # -- finalization --------------------------------------------------
    def build(self) -> tuple[str, dict]:
        tdef = self.tdef
        n = len(tdef.params)
        prefix = f"thread {tdef.name!r} takes {n} arguments, got "
        self.w(f"if len(args) != {n}:")
        self.w(f"    raise EmcRuntimeError({prefix!r} + str(len(args)))")
        for i, p in enumerate(tdef.params):
            self.w(f"v_{p} = args[{i}]")
        self.w("_pe = ctx.pe; _npes = ctx.n_pes")
        self.w("_mem = ctx.mem; _msz = _mem.size; _mw = _mem._words; _mwg = _mw.get")
        self.w("_st = ctx.state")
        self.w("_p = 0; _cc = {}; _cg = _cc.get")
        declared = set(tdef.params)
        self.gen_block(tdef.body, declared)
        # Thread-end flush; its yield also guarantees the compiled text
        # is a generator function even for an effect-free body.
        self.flush()
        src = f"def _gen_{tdef.name}(ctx, *args):\n" + "\n".join(self.lines) + "\n"
        return src, self.globals


def _scan_bc(block: ast.Block) -> tuple[bool, bool]:
    """(has_break, has_continue) belonging to *this* loop level — the
    walk stops at nested loops, which own their own."""
    has_break = has_continue = False

    def walk(stmt) -> None:
        nonlocal has_break, has_continue
        kind = type(stmt)
        if kind is ast.Break:
            has_break = True
        elif kind is ast.Continue:
            has_continue = True
        elif kind is ast.Block:
            for s in stmt.statements:
                walk(s)
        elif kind is ast.If:
            walk(stmt.then_block)
            if stmt.else_block is not None:
                walk(stmt.else_block)

    walk(block)
    return has_break, has_continue


def codegen_thread(
    program: ast.Program, tdef: ast.ThreadDef, env: dict, costs: EmcCosts
) -> Callable:
    """Compile one thread definition to a Python generator function.

    Returns a function with the interpreter's ``(ctx, *args)`` calling
    convention; raises :class:`LoweringError` when the shape cannot be
    generated faithfully.  The produced source is attached as
    ``__emc_codegen_source__`` for tests and diagnostics.
    """
    gen = _CodeGen(program, tdef, env, costs)
    src, globals_ = gen.build()
    try:
        code = compile(src, f"<emc-codegen:{tdef.name}>", "exec")
    except SyntaxError as exc:
        # CPython's static limits (e.g. 20 nested blocks) reject source
        # the interpreter runs fine.
        raise LoweringError(
            f"thread {tdef.name!r}: generated source does not compile: {exc.msg} "
            "(interpreter fallback)"
        ) from None
    exec(code, globals_)
    fn = globals_[f"_gen_{tdef.name}"]
    fn.__name__ = tdef.name
    fn.__qualname__ = f"emc.{tdef.name}"
    fn.__doc__ = f"EM-C thread {tdef.name!r} (python codegen)."
    fn.__emc_codegen_source__ = src
    return fn
