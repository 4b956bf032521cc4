"""GlobalBarrier and OrderToken unit tests (transport-free)."""

import pytest

from repro.core.sync import GlobalBarrier, OrderToken
from repro.core.thread import EMThread, ThreadState
from repro.errors import BarrierError


def mk_thread(tid=0):
    def body():
        yield

    return EMThread(tid, 0, body())


# ----------------------------------------------------------------------
# GlobalBarrier
# ----------------------------------------------------------------------
def test_arrive_counts_parties():
    bar = GlobalBarrier(2, [2, 2])
    assert bar.arrive(0) == (0, False)
    assert bar.arrive(0) == (0, True)  # last local party


def test_local_generation_advances():
    bar = GlobalBarrier(1, [1])
    assert bar.arrive(0) == (0, True)
    assert bar.arrive(0) == (1, True)


def test_overrun_rejected():
    bar = GlobalBarrier(1, [1])
    bar.arrive(0)
    bar.arrive(0)  # next generation is fine
    bar.local_arrived[0] = 1  # corrupt to simulate a double arrival
    with pytest.raises(BarrierError, match="overrun"):
        bar.arrive(0)
        bar.arrive(0)


def test_non_member_pe_rejected():
    bar = GlobalBarrier(2, [2, 0])
    with pytest.raises(BarrierError):
        bar.arrive(1)


def test_hub_waits_for_all_members():
    bar = GlobalBarrier(3, [1, 1, 1])
    assert not bar.hub_arrive(0)
    assert not bar.hub_arrive(0)
    assert bar.hub_arrive(0)
    assert bar.generations_completed == 1


def test_hub_generation_mismatch_rejected():
    bar = GlobalBarrier(2, [1, 1])
    with pytest.raises(BarrierError):
        bar.hub_arrive(3)


def test_release_ordering_enforced():
    bar = GlobalBarrier(1, [1])
    bar.release(0, 0)
    with pytest.raises(BarrierError):
        bar.release(0, 0)  # duplicate release
    bar.release(0, 1)
    assert bar.is_open(0, 1)


def test_is_open_monotone():
    bar = GlobalBarrier(1, [1])
    assert not bar.is_open(0, 0)
    bar.release(0, 0)
    assert bar.is_open(0, 0)
    assert not bar.is_open(0, 1)


def test_broadcast_requires_wiring():
    bar = GlobalBarrier(2, [1, 1])
    with pytest.raises(BarrierError, match="not wired"):
        bar.broadcast_release(0)


def test_broadcast_hits_members_only():
    bar = GlobalBarrier(3, [1, 0, 1])
    sent = []
    bar.wire(lambda pe, gen: sent.append((pe, gen)))
    bar.broadcast_release(0)
    assert sent == [(0, 0), (2, 0)]


def test_no_members_rejected():
    with pytest.raises(BarrierError):
        GlobalBarrier(2, [0, 0])


def test_parties_shape_validated():
    with pytest.raises(BarrierError):
        GlobalBarrier(2, [1])
    with pytest.raises(BarrierError):
        GlobalBarrier(2, [1, -1])
    with pytest.raises(BarrierError):
        GlobalBarrier(2, [1, 1], hub=5)


# ----------------------------------------------------------------------
# OrderToken
# ----------------------------------------------------------------------
def test_token_grants_in_sequence():
    tok = OrderToken()
    assert tok.holds(0)
    assert not tok.holds(1)
    assert tok.advance() is None
    assert tok.holds(1)


def test_token_wakes_parked_thread():
    tok = OrderToken()
    th = mk_thread()
    th.transition(ThreadState.RUNNING)
    th.transition(ThreadState.WAIT_TOKEN)
    tok.park(1, th)
    assert tok.waiting == 1
    assert tok.advance() is th
    assert tok.waiting == 0


def test_token_double_park_rejected():
    tok = OrderToken()
    tok.park(1, mk_thread(0))
    with pytest.raises(BarrierError):
        tok.park(1, mk_thread(1))


def test_park_on_granted_turn_rejected():
    tok = OrderToken()
    with pytest.raises(BarrierError):
        tok.park(0, mk_thread())


def test_token_reset():
    tok = OrderToken()
    tok.advance()
    tok.advance()
    tok.reset()
    assert tok.value == 0


def test_token_reset_with_waiters_rejected():
    tok = OrderToken()
    tok.park(2, mk_thread())
    with pytest.raises(BarrierError):
        tok.reset()
