"""The compiled effect-trace IR and its register VM.

The EM-C lowering (:mod:`repro.compile.lower_emc`) targets a flat
sequence of opcode tuples over a numbered register file, where guest
computation is folded into ``CHARGE`` opcodes (cycle budgets, summed
into one pending :class:`~repro.core.effects.Compute` exactly as the
EM-C interpreter's ``flush`` does) and every machine interaction is an
``EFF_*`` opcode with *operand slots* — register numbers naming the PE
id, partner, address offset or burst cost instead of concrete values.

:func:`run_trace` is the VM: one plain Python generator whose
``while``/``elif`` dispatch replaces the EM-C tree walker's recursive
``yield from`` chains.  It yields exactly the
effect objects the interpreter would (constructed through the same
:class:`~repro.core.threadlib.ThreadCtx` entry points, so address
validation and error text are shared, not re-implemented), which is
what keeps compiled runs byte-identical downstream — the EXU cannot
tell the VM from the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
from ..errors import EmcRuntimeError, MemoryFault, ProgramError
from ..packet.address import GlobalAddress

__all__ = ["TraceProgram", "run_trace", "OPCODE_NAMES"]

# ----------------------------------------------------------------------
# Opcodes.  Plain ints; tuples are (opcode, dst, operands..., [line]).
# Ordered roughly by dynamic frequency in the paper workloads — the VM
# dispatch chain below tests them in this order.
# ----------------------------------------------------------------------
ADD = 0
CHARGE = 1  # (CHARGE, cycles): pending += cycles
MOVE = 2
LT = 3
JF = 4  # (JF, src, target): jump when falsy
JUMP = 5
SUB = 6
MEM_LOAD = 7  # (MEM_LOAD, dst, idx, line)
MEM_STORE = 8  # (MEM_STORE, idx, val, line)
MUL = 9
EQ = 10
GE = 11
LE = 12
GT = 13
NE = 14
DIV = 15  # (DIV, dst, a, b, line): C-truncating for int/int
MOD = 16  # (MOD, dst, a, b, line): C-truncating remainder, ints only
JT = 17  # (JT, src, target): jump when truthy
BOOL = 18  # (BOOL, dst, src): 1/0 of truthiness
NOTB = 19  # (NOTB, dst, src): logical not, 1/0
NEG = 20
AT = 21  # (AT, dst, seq, idx, line)
LEN = 22  # (LEN, dst, src, line)
CHARGE_REG = 23  # (CHARGE_REG, src): pending += int(R[src])
PRINT = 24  # (PRINT, dst, argregs)
TOKEN_RESET = 25  # (TOKEN_RESET, dst, src)
# Effect opcodes: flush pending as one Compute, then yield.
EFF_READ = 26  # (EFF_READ, dst, pe, off)
EFF_READ2 = 27  # (EFF_READ2, dst, pe, off_a, off_b)
EFF_RBLOCK = 28  # (EFF_RBLOCK, dst, pe, off, count)
EFF_WRITE = 29  # (EFF_WRITE, dst, pe, off, val)
EFF_SPAWN = 30  # (EFF_SPAWN, dst, line, pe, name, argregs)
EFF_BARRIER = 31  # (EFF_BARRIER, dst, src)
EFF_TOKENW = 32  # (EFF_TOKENW, dst, tok, seq)
EFF_TOKENA = 33  # (EFF_TOKENA, dst, tok)
EFF_SWITCH = 34  # (EFF_SWITCH, dst)
RET = 35  # flush pending and end the thread
# Fused opcodes (peephole products; semantics = the unfused sequence).
CJF = 36  # (CJF, charge, src, target): CHARGE then JF
CJUMP = 37  # (CJUMP, charge, target): CHARGE then JUMP
CMPJF = 38  # (CMPJF, cmp_opcode, a, b, charge, target): cmp+CHARGE+JF
MEMCPY = 39  # (MEMCPY, dst_idx, src_idx, load_line, store_line)

#: Debug names, indexed by opcode (``repro.compile`` diagnostics only).
OPCODE_NAMES = (
    "ADD", "CHARGE", "MOVE", "LT", "JF", "JUMP", "SUB", "MEM_LOAD",
    "MEM_STORE", "MUL", "EQ", "GE", "LE", "GT", "NE", "DIV", "MOD",
    "JT", "BOOL", "NOTB", "NEG", "AT", "LEN", "CHARGE_REG", "PRINT",
    "TOKEN_RESET", "EFF_READ", "EFF_READ2", "EFF_RBLOCK", "EFF_WRITE",
    "EFF_SPAWN", "EFF_BARRIER", "EFF_TOKENW", "EFF_TOKENA",
    "EFF_SWITCH", "RET", "CJF", "CJUMP", "CMPJF", "MEMCPY",
)


@dataclass(frozen=True)
class TraceProgram:
    """One thread shape compiled to the trace IR.

    The register file layout is ``[params | locals/temps | constants]``;
    ``reg_init`` preloads the constant tail (literals, host objects from
    the EM-C environment), and ``pe_reg``/``npes_reg`` are filled from
    the :class:`~repro.core.threadlib.ThreadCtx` at start, so one
    program is shared by every thread of the cohort — per-member state
    lives entirely in the register file of its own :func:`run_trace`
    frame.
    """

    name: str
    ops: tuple[tuple, ...]
    n_regs: int
    n_params: int
    reg_init: tuple[tuple[int, Any], ...]
    pe_reg: int
    npes_reg: int
    spawn_names: frozenset[str]

    def disassemble(self) -> str:
        """Human-readable listing (tests and debugging)."""
        lines = []
        for i, op in enumerate(self.ops):
            lines.append(f"{i:4d}  {OPCODE_NAMES[op[0]]:<11s} {op[1:]}")
        return "\n".join(lines)


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


def run_trace(prog: TraceProgram, ctx, args: tuple):
    """Execute one compiled thread against a live ctx (generator).

    Effect-for-effect and cycle-for-cycle identical to running the
    thread's source through :class:`repro.emc.interp._Interp`: charges
    accumulate into ``pending`` and flush as a single ``Compute``
    immediately before every effectful builtin and at thread end.
    """
    if len(args) != prog.n_params:
        raise EmcRuntimeError(
            f"thread {prog.name!r} takes {prog.n_params} arguments, got {len(args)}"
        )
    R: list[Any] = [None] * prog.n_regs
    for reg, value in prog.reg_init:
        R[reg] = value
    R[: len(args)] = args
    R[prog.pe_reg] = ctx.pe
    R[prog.npes_reg] = ctx.n_pes
    ops = prog.ops
    mem = ctx.mem
    mem_size = mem.size
    mem_words = mem._words
    n_pes = ctx.n_pes
    # Repeated charge sums share one immutable Compute per value — the
    # engine treats effects as values and never mutates them.
    computes: dict[int, Compute] = {}
    cget = computes.get
    pc = 0
    pending = 0
    while True:
        op = ops[pc]
        o = op[0]
        pc += 1
        if o == ADD:
            R[op[1]] = R[op[2]] + R[op[3]]
        elif o == CMPJF:
            # cmp, charge, branch-if-false — exactly the unfused order
            # (a raising comparison leaves pending uncharged, as the
            # three-op sequence would).
            c = op[1]
            if c == LT:
                taken = R[op[2]] < R[op[3]]
            elif c == GE:
                taken = R[op[2]] >= R[op[3]]
            elif c == LE:
                taken = R[op[2]] <= R[op[3]]
            elif c == GT:
                taken = R[op[2]] > R[op[3]]
            elif c == EQ:
                taken = R[op[2]] == R[op[3]]
            else:
                taken = R[op[2]] != R[op[3]]
            pending += op[4]
            if not taken:
                pc = op[5]
        elif o == CJUMP:
            pending += op[1]
            pc = op[2]
        elif o == CJF:
            pending += op[1]
            if not R[op[2]]:
                pc = op[3]
        elif o == CHARGE:
            pending += op[1]
        elif o == MOVE:
            R[op[1]] = R[op[2]]
        elif o == LT:
            R[op[1]] = 1 if R[op[2]] < R[op[3]] else 0
        elif o == JF:
            if not R[op[1]]:
                pc = op[2]
        elif o == JUMP:
            pc = op[1]
        elif o == SUB:
            R[op[1]] = R[op[2]] - R[op[3]]
        elif o == MEMCPY:
            v = R[op[2]]
            i = v if v.__class__ is int else _as_index(v, op[3])
            if i < 0 or i >= mem_size:
                raise MemoryFault(
                    f"access [{i}, {i + 1}) outside memory of {mem_size} words"
                )
            mem.reads += 1
            v = mem_words.get(i, 0)
            w = R[op[1]]
            i = w if w.__class__ is int else _as_index(w, op[4])
            if i < 0 or i >= mem_size:
                raise MemoryFault(
                    f"access [{i}, {i + 1}) outside memory of {mem_size} words"
                )
            mem.writes += 1
            mem_words[i] = v
        elif o == MEM_LOAD:
            v = R[op[2]]
            i = v if v.__class__ is int else _as_index(v, op[3])
            if i < 0 or i >= mem_size:
                raise MemoryFault(
                    f"access [{i}, {i + 1}) outside memory of {mem_size} words"
                )
            mem.reads += 1
            R[op[1]] = mem_words.get(i, 0)
        elif o == MEM_STORE:
            v = R[op[1]]
            i = v if v.__class__ is int else _as_index(v, op[3])
            if i < 0 or i >= mem_size:
                raise MemoryFault(
                    f"access [{i}, {i + 1}) outside memory of {mem_size} words"
                )
            mem.writes += 1
            mem_words[i] = R[op[2]]
        elif o == MUL:
            R[op[1]] = R[op[2]] * R[op[3]]
        elif o == EQ:
            R[op[1]] = 1 if R[op[2]] == R[op[3]] else 0
        elif o == GE:
            R[op[1]] = 1 if R[op[2]] >= R[op[3]] else 0
        elif o == LE:
            R[op[1]] = 1 if R[op[2]] <= R[op[3]] else 0
        elif o == GT:
            R[op[1]] = 1 if R[op[2]] > R[op[3]] else 0
        elif o == NE:
            R[op[1]] = 1 if R[op[2]] != R[op[3]] else 0
        elif o == DIV:
            a, b = R[op[2]], R[op[3]]
            try:
                if isinstance(a, int) and isinstance(b, int):
                    q = abs(a) // abs(b)
                    R[op[1]] = q if (a >= 0) == (b >= 0) else -q
                else:
                    R[op[1]] = a / b
            except ZeroDivisionError:
                raise _fail(op[4], "division by zero") from None
        elif o == MOD:
            a, b = R[op[2]], R[op[3]]
            if not (isinstance(a, int) and isinstance(b, int)):
                raise _fail(op[4], "'%' needs integer operands")
            try:
                R[op[1]] = a - b * (
                    a // b if (a >= 0) == (b >= 0) else -(abs(a) // abs(b))
                )
            except ZeroDivisionError:
                raise _fail(op[4], "division by zero") from None
        elif o == JT:
            if R[op[1]]:
                pc = op[2]
        elif o == BOOL:
            R[op[1]] = 1 if R[op[2]] else 0
        elif o == NOTB:
            R[op[1]] = 0 if R[op[2]] else 1
        elif o == NEG:
            R[op[1]] = -R[op[2]]
        elif o == AT:
            a, b = R[op[2]], R[op[3]]
            try:
                R[op[1]] = a[int(b)]
            except (TypeError, IndexError):
                raise _fail(op[4], f"bad at() access: {[a, b]!r}") from None
        elif o == LEN:
            try:
                R[op[1]] = len(R[op[2]])
            except TypeError:
                raise _fail(op[3], f"len() of non-sequence {R[op[2]]!r}") from None
        elif o == CHARGE_REG:
            pending += int(R[op[1]])
        elif o == PRINT:
            ctx.state.setdefault("emc_output", []).append(
                " ".join(str(R[r]) for r in op[2])
            )
            R[op[1]] = 0
        elif o == TOKEN_RESET:
            R[op[2]].reset()
            R[op[1]] = 0
        elif o == EFF_READ:
            if pending:
                # Fuse the pending compute charge into the read packet.
                # Probe the operand conversions first: on any failure
                # the charge must still flush as its own Compute before
                # the original path re-raises the identical error.
                addr = None
                try:
                    pe = int(R[op[2]])
                    if 0 <= pe < n_pes:
                        addr = GlobalAddress(pe, int(R[op[3]]))
                except Exception:
                    pass
                if addr is not None:
                    R[op[1]] = yield FusedRead(pending, addr)
                    pending = 0
                    continue
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            pe = int(R[op[2]])
            if not 0 <= pe < n_pes:
                raise ProgramError(f"global address names PE {pe} of {n_pes}")
            R[op[1]] = yield RemoteRead(GlobalAddress(pe, int(R[op[3]])))
        elif o == EFF_READ2:
            if pending:
                addr_a = addr_b = None
                try:
                    pe = int(R[op[2]])
                    if 0 <= pe < n_pes:
                        addr_a = GlobalAddress(pe, int(R[op[3]]))
                        addr_b = GlobalAddress(pe, int(R[op[4]]))
                except Exception:
                    addr_a = None
                if addr_a is not None and addr_b is not None:
                    pair = yield FusedReadPair(pending, addr_a, addr_b)
                    R[op[1]] = list(pair)
                    pending = 0
                    continue
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            pe = int(R[op[2]])
            if not 0 <= pe < n_pes:
                raise ProgramError(f"global address names PE {pe} of {n_pes}")
            pair = yield RemoteReadPair(
                GlobalAddress(pe, int(R[op[3]])), GlobalAddress(pe, int(R[op[4]]))
            )
            R[op[1]] = list(pair)
        elif o == EFF_RBLOCK:
            if pending:
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            block = yield ctx.read_block(
                ctx.ga(int(R[op[2]]), int(R[op[3]])), int(R[op[4]])
            )
            R[op[1]] = list(block)
        elif o == EFF_WRITE:
            if pending:
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            pe = int(R[op[2]])
            if not 0 <= pe < n_pes:
                raise ProgramError(f"global address names PE {pe} of {n_pes}")
            yield RemoteWrite(GlobalAddress(pe, int(R[op[3]])), R[op[4]])
            R[op[1]] = 0
        elif o == EFF_SPAWN:
            name = R[op[4]]
            if not isinstance(name, str):
                raise _fail(op[2], "spawn() target must be a string thread name")
            if name not in prog.spawn_names:
                raise _fail(op[2], f"spawn of unknown thread {name!r}")
            if pending:
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            yield Spawn(int(R[op[3]]), name, tuple(R[r] for r in op[5]))
            R[op[1]] = 0
        elif o == EFF_BARRIER:
            if pending:
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            yield BarrierWait(R[op[2]])
            R[op[1]] = 0
        elif o == EFF_TOKENW:
            if pending:
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            yield TokenWait(R[op[2]], int(R[op[3]]))
            R[op[1]] = 0
        elif o == EFF_TOKENA:
            if pending:
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            yield TokenAdvance(R[op[2]])
            R[op[1]] = 0
        elif o == EFF_SWITCH:
            if pending:
                eff = cget(pending)
                if eff is None:
                    eff = computes[pending] = Compute(pending)
                yield eff
                pending = 0
            yield SwitchNow()
            R[op[1]] = 0
        elif o == RET:
            break
        else:  # pragma: no cover - lowering emits only the above
            raise _fail(0, f"unknown trace opcode {o}")
    if pending:
        yield Compute(pending)
