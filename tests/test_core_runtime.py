"""Core runtime pieces: threads, continuations, registry, ctx validation."""

import pytest

from repro.core.continuation import ContinuationTable
from repro.core.registry import ProgramRegistry
from repro.core.thread import EMThread, ThreadState
from repro.core.threadlib import ThreadCtx
from repro.errors import ProgramError, SchedulerError, ThreadProtocolError
from repro.memory import LocalMemory


def mk_thread(tid=0):
    def body():
        yield

    return EMThread(tid, 0, body())


# ----------------------------------------------------------------------
# Thread state machine
# ----------------------------------------------------------------------
def test_legal_lifecycle():
    th = mk_thread()
    th.transition(ThreadState.RUNNING)
    th.transition(ThreadState.WAIT_READ)
    th.transition(ThreadState.RUNNING)
    th.transition(ThreadState.DONE)
    assert th.state is ThreadState.DONE


def test_illegal_transition_rejected():
    th = mk_thread()
    with pytest.raises(ThreadProtocolError):
        th.transition(ThreadState.WAIT_READ)  # READY -> WAIT_READ skips RUNNING


def test_done_is_terminal():
    th = mk_thread()
    th.transition(ThreadState.RUNNING)
    th.transition(ThreadState.DONE)
    with pytest.raises(ThreadProtocolError):
        th.transition(ThreadState.RUNNING)


def test_explicit_switch_back_to_ready():
    th = mk_thread()
    th.transition(ThreadState.RUNNING)
    th.transition(ThreadState.READY)
    th.transition(ThreadState.RUNNING)
    assert th.state is ThreadState.RUNNING


# ----------------------------------------------------------------------
# Continuation table
# ----------------------------------------------------------------------
def test_register_resolve_roundtrip():
    ct = ContinuationTable(0)
    th = mk_thread()
    cid = ct.register(th)
    assert ct.outstanding == 1
    assert ct.resolve(cid) is th
    assert ct.outstanding == 0


def test_ids_are_recycled():
    ct = ContinuationTable(0)
    cid1 = ct.register(mk_thread(0))
    ct.resolve(cid1)
    cid2 = ct.register(mk_thread(1))
    assert cid2 == cid1  # freed id reused


def test_resolve_unknown_rejected():
    with pytest.raises(SchedulerError):
        ContinuationTable(0).resolve(3)


# ----------------------------------------------------------------------
# Program registry
# ----------------------------------------------------------------------
def test_registry_requires_generator_function():
    reg = ProgramRegistry()

    def not_a_gen(ctx):
        return 1

    with pytest.raises(ProgramError, match="generator"):
        reg.register(not_a_gen)


def test_registry_roundtrip_and_contains():
    reg = ProgramRegistry()

    def worker(ctx):
        yield

    name = reg.register(worker)
    assert name == "worker"
    assert "worker" in reg and len(reg) == 1
    assert reg.get("worker") is worker


def test_registry_idempotent_reregister():
    reg = ProgramRegistry()

    def worker(ctx):
        yield

    reg.register(worker)
    reg.register(worker)  # same function twice is fine
    assert len(reg) == 1


def test_registry_name_conflict_rejected():
    reg = ProgramRegistry()

    def worker(ctx):
        yield

    def other(ctx):
        yield

    reg.register(worker, name="job")
    with pytest.raises(ProgramError, match="already registered"):
        reg.register(other, name="job")


def test_registry_unknown_name():
    with pytest.raises(ProgramError):
        ProgramRegistry().get("nope")


# ----------------------------------------------------------------------
# ThreadCtx
# ----------------------------------------------------------------------
def test_ctx_ga_validates_pe():
    ctx = ThreadCtx(0, 4, LocalMemory(16), {}, tid=0)
    assert ctx.ga(3, 5).pe == 3
    with pytest.raises(ProgramError):
        ctx.ga(4, 0)


def test_ctx_effect_constructors():
    ctx = ThreadCtx(1, 4, LocalMemory(16), {}, tid=0)
    assert ctx.compute(5).cycles == 5
    assert ctx.read(ctx.ga(0, 1)).addr == (0, 1)
    assert ctx.read_pair(ctx.ga(0, 1), ctx.ga(0, 2)).addr_b == (0, 2)
    assert ctx.read_block(ctx.ga(2, 0), 4).count == 4
    assert ctx.write(ctx.ga(0, 1), 9).value == 9
    assert ctx.spawn(2, "f", 1, 2).args == (1, 2)
    assert ctx.switch().suspends


def test_ctx_compute_rejects_negative():
    ctx = ThreadCtx(0, 2, LocalMemory(4), {}, tid=0)
    with pytest.raises(ThreadProtocolError):
        ctx.compute(-1)
