"""Multithreaded bitonic sorting (paper §3.1).

Given P processors and n elements, each processor holds n/P.  After a
local sort, the merge schedule runs log P stages of substeps; in each
(i, j) iteration a processor compare-splits its ascending list with its
mate ``pe ^ 2^j``, keeping the low or high half.

The multithreaded version divides the inner loop into *h* threads, each
responsible for reading and merging n/(hP) elements of the mate's list:

* **Reading** (thread communication parallelism): each thread reads its
  chunk element by element through split-phase remote reads — the
  paper's 12-clock loop body — suspending at every read.
* **Merging** (no thread computation parallelism): merges must happen
  in thread order to keep the output ascending, enforced with an
  :class:`~repro.core.sync.OrderToken`; waiting threads take
  thread-sync switches.
* **Early termination**: a processor only needs n/P output elements, so
  once the merge completes, threads skip their remaining reads — the
  irregularity the paper highlights ("Thread 1 is therefore not
  required to read the fourth element 8 from the mate processor").
* A global barrier ends every iteration, "forcing loops to execute
  synchronously" exactly as the paper instruments it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api import register_app
from ..config import MachineConfig
from ..core.sync import GlobalBarrier, OrderToken
from ..errors import ProgramError
from ..isa.costs import KERNEL_COSTS, KernelCosts
from ..machine import EMX, MachineReport
from .reference import (
    compare_split_direction,
    ilog2,
    is_power_of_two,
    partition_bounds,
    reference_bitonic_schedule,
)

__all__ = ["run_bitonic", "BitonicResult", "BitonicParams", "STABLE_BASE"]

#: Word offset of the stable (mate-readable) sorted list in each PE.
STABLE_BASE = 0


@dataclass
class BitonicParams:
    """Per-run constants shared by every worker thread via guest state."""

    h: int
    npp: int
    kernel: KernelCosts
    barrier: GlobalBarrier
    schedule: list[tuple[int, int]]
    read_issue_cycles: int
    copy_cycles_per_word: int = 2
    #: Use the EMC-Y's block-read send instruction: one request per
    #: chunk instead of one per element (extension experiment A5 — the
    #: paper's per-element loop is the default).
    block_reads: bool = False


@dataclass
class BitonicResult:
    """Outcome of one simulated sort."""

    report: MachineReport
    n: int
    n_pes: int
    h: int
    sorted_ok: bool
    output: list[int] = field(repr=False)
    reads_issued: int = 0
    reads_possible: int = 0

    @property
    def reads_saved_fraction(self) -> float:
        """Fraction of mate reads skipped by early termination."""
        if self.reads_possible == 0:
            return 0.0
        return 1.0 - self.reads_issued / self.reads_possible


def _merge_chunk(mi: dict, L: list, buf: list, keep_low: bool, npp: int, last: bool) -> int:
    """Merge one thread's chunk into the shared iteration state.

    Returns the number of output elements produced (the merge's cycle
    charge).  ``mi['out']`` accumulates the kept half: ascending when
    keeping low, descending when keeping high.
    """
    out = mi["out"]
    produced = 0
    li = mi["li"]
    if keep_low:
        for v in buf:
            if len(out) >= npp:
                break
            while li < npp and L[li] <= v and len(out) < npp:
                out.append(L[li])
                li += 1
                produced += 1
            if len(out) >= npp:
                break
            out.append(v)
            produced += 1
        if last:
            while len(out) < npp and li < npp:
                out.append(L[li])
                li += 1
                produced += 1
    else:
        for v in buf:
            if len(out) >= npp:
                break
            while li >= 0 and L[li] >= v and len(out) < npp:
                out.append(L[li])
                li -= 1
                produced += 1
            if len(out) >= npp:
                break
            out.append(v)
            produced += 1
        if last:
            while len(out) < npp and li >= 0:
                out.append(L[li])
                li -= 1
                produced += 1
    mi["li"] = li
    if len(out) >= npp:
        mi["done"] = True
    return produced


def bitonic_worker(ctx, t: int):
    """Thread body of worker ``t`` (of h) on this processor."""
    st = ctx.state
    p: BitonicParams = st["params"]
    bar = p.barrier
    token: OrderToken = st["token"]
    h, npp, kc = p.h, p.npp, p.kernel
    # The 12-clock loop body includes the read instruction itself; the
    # EXU charges packet generation separately, so the inline compute is
    # the remainder.
    read_body = max(1, kc.sort_read_loop_body - p.read_issue_cycles)

    # ---- Local sort phase (thread 0 sorts; the rest wait). ----
    if t == 0:
        L = st["L"]
        L.sort()
        ctx.mem.write_block(STABLE_BASE, L)
        yield ctx.compute(npp * max(1, ilog2(npp)) * kc.sort_local_sort_per_cmp)
    yield ctx.barrier_wait(bar)

    for it_idx, (i, j) in enumerate(p.schedule):
        mate, keep_low = compare_split_direction(ctx.pe, i, j)
        mi = st["mi"]
        L = st["L"]

        # -------- Phase A: split-phase reads of my chunk --------
        if keep_low:
            lo, hi = partition_bounds(npp, h, t)
            indices = range(lo, hi)
        else:
            lo, hi = partition_bounds(npp, h, h - 1 - t)
            indices = range(hi - 1, lo - 1, -1)
        buf = []
        if p.block_reads:
            # One block-read request covers the whole chunk; early
            # termination can only skip whole chunks.
            if hi > lo and not mi["done"]:
                yield ctx.compute(read_body)
                block = yield ctx.read_block(ctx.ga(mate, STABLE_BASE + lo), hi - lo)
                buf = list(block) if keep_low else list(block)[::-1]
        else:
            for idx in indices:
                if mi["done"]:
                    break  # early termination: output already complete
                yield ctx.compute(read_body)
                v = yield ctx.read(ctx.ga(mate, STABLE_BASE + idx))
                buf.append(v)

        # -------- Phase B: token-ordered merge --------
        yield ctx.token_wait(token, t)
        produced = _merge_chunk(mi, L, buf, keep_low, npp, last=(t == h - 1))
        if produced:
            yield ctx.compute(produced * kc.sort_merge_per_element)
        yield ctx.token_advance(token)

        # -------- Phase C: end-of-merge barrier --------
        yield ctx.barrier_wait(bar)

        # -------- Phase D: publish the new stable list --------
        final = mi["out"] if keep_low else mi["out"][::-1]
        lo, hi = partition_bounds(npp, h, t)
        if hi > lo:
            ctx.mem.write_block(STABLE_BASE + lo, final[lo:hi])
            yield ctx.compute(p.copy_cycles_per_word * (hi - lo))
        if t == 0:
            st["L"] = final
            if it_idx + 1 < len(p.schedule):
                _, kl_next = compare_split_direction(ctx.pe, *p.schedule[it_idx + 1])
                st["mi"] = _fresh_merge_state(kl_next, npp)
            token.reset()
        yield ctx.barrier_wait(bar)


def _fresh_merge_state(keep_low: bool, npp: int) -> dict:
    return {"out": [], "li": 0 if keep_low else npp - 1, "done": False}


@register_app("sort", "bitonic")
def run_bitonic(
    *,
    n_pes: int,
    n: int,
    h: int,
    config: MachineConfig | None = None,
    obs=None,
    kernel: KernelCosts | None = None,
    data: list[int] | None = None,
    seed: int = 0,
    verify: bool = True,
    block_reads: bool = False,
) -> BitonicResult:
    """Sort ``n`` integers on ``n_pes`` processors with ``h`` threads each.

    Constraints (all inherited from the paper's setup): ``n_pes`` and
    ``n / n_pes`` are powers of two and ``h`` divides ``n / n_pes``.
    """
    if not is_power_of_two(n_pes):
        raise ProgramError(f"bitonic sort needs a power-of-two processor count, got {n_pes}")
    if n % n_pes:
        raise ProgramError(f"{n} elements do not divide over {n_pes} PEs")
    npp = n // n_pes
    if not is_power_of_two(npp):
        raise ProgramError(f"per-PE element count {npp} must be a power of two")
    if not (1 <= h <= npp):
        raise ProgramError(f"thread count {h} must be in 1..{npp} (the per-PE count)")

    kernel = kernel or KERNEL_COSTS
    kernel.validate()
    machine = EMX((config or MachineConfig()).with_(n_pes=n_pes), obs=obs)
    machine.register(bitonic_worker)
    barrier = machine.make_barrier(h)
    schedule = reference_bitonic_schedule(n_pes)

    if data is None:
        rng = np.random.default_rng(seed)
        data = [int(x) for x in rng.integers(0, 2**31, size=n)]
    elif len(data) != n:
        raise ProgramError(f"supplied data has {len(data)} elements, expected {n}")

    params = BitonicParams(
        h=h,
        npp=npp,
        kernel=kernel,
        barrier=barrier,
        schedule=schedule,
        read_issue_cycles=machine.config.timing.pkt_gen,
        block_reads=block_reads,
    )
    for pe in range(n_pes):
        block = list(data[pe * npp : (pe + 1) * npp])
        proc = machine.pes[pe]
        proc.memory.write_block(STABLE_BASE, block)
        st = proc.guest_state
        st["params"] = params
        st["token"] = OrderToken()
        st["L"] = block
        # First iteration of the schedule decides the first cursor shape.
        if schedule:
            _, keep_low0 = compare_split_direction(pe, *schedule[0])
        else:
            keep_low0 = True
        st["mi"] = _fresh_merge_state(keep_low0, npp)
        for t in range(h):
            machine.spawn(pe, "bitonic_worker", t)

    report = machine.run()

    output: list[int] = []
    for pe in range(n_pes):
        output.extend(int(v) for v in machine.pes[pe].memory.read_block(STABLE_BASE, npp))
    sorted_ok = (not verify) or output == sorted(int(x) for x in data)

    reads = sum(c.reads_issued + c.block_words_requested for c in report.counters)
    return BitonicResult(
        report=report,
        n=n,
        n_pes=n_pes,
        h=h,
        sorted_ok=sorted_ok,
        output=output,
        reads_issued=reads,
        reads_possible=len(schedule) * n,
    )
