"""Multithreaded blocked FFT (paper §3.2).

n complex points are block-distributed over P processors; a
decimation-in-frequency FFT needs communication for exactly the first
log P iterations (the butterfly span exceeds the block size), and those
are what the paper measures.  In iteration *it* a processor's mate is
``pe ^ (P >> (it+1))`` and each of its points needs the mate's point at
the *same local offset* — one remote read for the real part and one for
the imaginary part, per the paper's inner-loop listing.

Unlike sorting, "FFT possesses no data dependence between elements
within an iteration": each of the h threads computes its points as soon
as its reads return, in any order, with no token — the large butterfly
budget (hundreds of clocks of trigonometric work) is the run length that
makes two or three threads enough to hide the entire latency.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from ..api import register_app
from ..config import MachineConfig
from ..core.sync import GlobalBarrier
from ..errors import ProgramError
from ..isa.costs import KERNEL_COSTS, KernelCosts
from ..machine import EMX, MachineReport
from .reference import (
    bit_reverse_permute,
    dif_fft_stages,
    ilog2,
    is_power_of_two,
    partition_bounds,
)

__all__ = ["run_fft", "FFTResult", "FFTParams", "RE_BASE"]

#: Word offset of the stable real parts; imaginary parts follow at
#: ``RE_BASE + npp``.
RE_BASE = 0


@dataclass
class FFTParams:
    """Per-run constants shared by worker threads via guest state."""

    h: int
    n: int
    npp: int
    comm_stages: int
    local_stages: int
    kernel: KernelCosts
    barrier: GlobalBarrier
    copy_cycles_per_word: int = 2


@dataclass
class FFTResult:
    """Outcome of one simulated FFT."""

    report: MachineReport
    n: int
    n_pes: int
    h: int
    max_error: float
    verified: bool
    output: list[complex] = field(repr=False)


def _twiddle(i_global: int, half: int) -> complex:
    k = i_global % half if half else 0
    return cmath.exp(-2j * cmath.pi * k / (2 * half))


def fft_worker(ctx, t: int):
    """Thread body of worker ``t`` (of h) on this processor."""
    st = ctx.state
    p: FFTParams = st["params"]
    bar = p.barrier
    h, n, npp, kc = p.h, p.n, p.npp, p.kernel
    lo, hi = partition_bounds(npp, h, t)
    pe = ctx.pe
    n_pes = ctx.n_pes
    my_base = pe * npp  # global index of this PE's first point

    # ---------------- communication stages ----------------
    for it in range(p.comm_stages):
        mate = pe ^ (n_pes >> (it + 1))
        half = n >> (it + 1)
        re, im = st["re"], st["im"]
        out_re, out_im = st["out_re"], st["out_im"]
        for k in range(lo, hi):
            # Address computation + loop control for this point.
            yield ctx.compute(kc.fft_read_loop_overhead)
            # Real and imaginary words in one two-token matched read,
            # as the paper's back-to-back remote_read pair.
            vr, vi = yield ctx.read_pair(
                ctx.ga(mate, RE_BASE + k), ctx.ga(mate, RE_BASE + npp + k)
            )
            g = my_base + k
            mine = complex(re[k], im[k])
            theirs = complex(vr, vi)
            if g & half:
                # Upper half of the pair: (lower − upper) · twiddle.
                new = (theirs - mine) * _twiddle(g ^ half, half)
            else:
                new = mine + theirs
            out_re[k] = new.real
            out_im[k] = new.imag
            yield ctx.compute(kc.fft_butterfly_per_point)
        yield ctx.barrier_wait(bar)
        # Publish my slice of the new stable arrays.
        if hi > lo:
            ctx.mem.write_block(RE_BASE + lo, out_re[lo:hi])
            ctx.mem.write_block(RE_BASE + npp + lo, out_im[lo:hi])
            yield ctx.compute(p.copy_cycles_per_word * 2 * (hi - lo))
        if t == 0:
            st["re"], st["out_re"] = out_re, re
            st["im"], st["out_im"] = out_im, im
        yield ctx.barrier_wait(bar)

    # ---------------- local stages (no communication) ----------------
    for s in range(p.local_stages):
        it = p.comm_stages + s
        half = n >> (it + 1)
        re, im = st["re"], st["im"]
        # Lower indices of the butterfly pairs inside my block, split
        # between threads; each pair is written only by its owner.
        lowers = [k for k in range(npp) if not ((my_base + k) & half)]
        plo, phi = partition_bounds(len(lowers), h, t)
        mine_pairs = lowers[plo:phi]
        local_half = half  # half < npp here, so the partner is local
        for k in mine_pairs:
            g = my_base + k
            a = complex(re[k], im[k])
            b = complex(re[k + local_half], im[k + local_half])
            upper = (a - b) * _twiddle(g, half)
            lower = a + b
            re[k], im[k] = lower.real, lower.imag
            re[k + local_half], im[k + local_half] = upper.real, upper.imag
            yield ctx.compute(2 * kc.fft_local_stage_per_point)
        yield ctx.barrier_wait(bar)
    # Final publish so the harness can read results from memory.
    if p.local_stages and hi > lo:
        re, im = st["re"], st["im"]
        ctx.mem.write_block(RE_BASE + lo, re[lo:hi])
        ctx.mem.write_block(RE_BASE + npp + lo, im[lo:hi])
        yield ctx.compute(p.copy_cycles_per_word * 2 * (hi - lo))


@register_app("fft")
def run_fft(
    *,
    n_pes: int,
    n: int,
    h: int,
    config: MachineConfig | None = None,
    obs=None,
    kernel: KernelCosts | None = None,
    data: list[complex] | None = None,
    seed: int = 0,
    verify: bool = True,
    comm_stages_only: bool = True,
    tolerance: float = 1e-6,
) -> FFTResult:
    """Transform ``n`` points on ``n_pes`` processors with ``h`` threads each.

    With ``comm_stages_only`` (the paper's measurement mode) only the
    first log P iterations run and the result is checked against a
    reference partial DIF transform; otherwise the full FFT runs and is
    checked against ``numpy.fft.fft``.
    """
    if not is_power_of_two(n_pes) or n_pes < 2:
        raise ProgramError(f"FFT needs a power-of-two processor count >= 2, got {n_pes}")
    if n % n_pes:
        raise ProgramError(f"{n} points do not divide over {n_pes} PEs")
    npp = n // n_pes
    if not is_power_of_two(npp):
        raise ProgramError(f"per-PE point count {npp} must be a power of two")
    if not (1 <= h <= npp):
        raise ProgramError(f"thread count {h} must be in 1..{npp} (the per-PE count)")

    kernel = kernel or KERNEL_COSTS
    kernel.validate()
    machine = EMX((config or MachineConfig()).with_(n_pes=n_pes), obs=obs)
    machine.register(fft_worker)
    barrier = machine.make_barrier(h)

    comm_stages = ilog2(n_pes)
    local_stages = 0 if comm_stages_only else ilog2(n) - comm_stages

    if data is None:
        rng = np.random.default_rng(seed)
        data = [complex(a, b) for a, b in zip(rng.standard_normal(n), rng.standard_normal(n))]
    elif len(data) != n:
        raise ProgramError(f"supplied data has {len(data)} points, expected {n}")

    params = FFTParams(
        h=h,
        n=n,
        npp=npp,
        comm_stages=comm_stages,
        local_stages=local_stages,
        kernel=kernel,
        barrier=barrier,
    )
    for pe in range(n_pes):
        block = data[pe * npp : (pe + 1) * npp]
        proc = machine.pes[pe]
        re = [z.real for z in block]
        im = [z.imag for z in block]
        proc.memory.write_block(RE_BASE, re)
        proc.memory.write_block(RE_BASE + npp, im)
        st = proc.guest_state
        st["params"] = params
        st["re"], st["im"] = re, im
        st["out_re"], st["out_im"] = [0.0] * npp, [0.0] * npp
        for t in range(h):
            machine.spawn(pe, "fft_worker", t)

    report = machine.run()

    output: list[complex] = []
    for pe in range(n_pes):
        re = machine.pes[pe].memory.read_block(RE_BASE, npp)
        im = machine.pes[pe].memory.read_block(RE_BASE + npp, npp)
        output.extend(complex(a, b) for a, b in zip(re, im))

    max_error = 0.0
    verified = True
    if verify:
        if comm_stages_only:
            expected = dif_fft_stages(list(data), comm_stages)
        else:
            expected = dif_fft_stages(list(data), ilog2(n))
        err = max(abs(a - b) for a, b in zip(output, expected))
        if not comm_stages_only:
            # Sanity: the completed DIF result, bit-reversed, is the DFT.
            nat = bit_reverse_permute(output)
            ref = np.fft.fft(np.array(data))
            err = max(err, float(np.max(np.abs(nat - ref))) / max(1.0, float(np.max(np.abs(ref)))))
        max_error = err
        verified = err <= tolerance

    return FFTResult(
        report=report,
        n=n,
        n_pes=n_pes,
        h=h,
        max_error=max_error,
        verified=verified,
        output=output,
    )
