"""Matching memory: two-token direct matching semantics."""

from repro.memory import MatchingMemory


def test_first_token_parks():
    mm = MatchingMemory()
    assert mm.offer(1, 0, "a") is None
    assert mm.pending == 1


def test_second_token_matches_in_order():
    mm = MatchingMemory()
    mm.offer(1, 0, "first")
    assert mm.offer(1, 0, "second") == ("first", "second")
    assert mm.pending == 0


def test_distinct_slots_do_not_match():
    mm = MatchingMemory()
    assert mm.offer(1, 0, "a") is None
    assert mm.offer(1, 1, "b") is None
    assert mm.pending == 2


def test_distinct_frames_do_not_match():
    mm = MatchingMemory()
    assert mm.offer(1, 0, "a") is None
    assert mm.offer(2, 0, "b") is None
    assert mm.pending == 2


def test_slot_reusable_after_match():
    mm = MatchingMemory()
    mm.offer(5, 3, 1)
    mm.offer(5, 3, 2)
    assert mm.offer(5, 3, 3) is None  # a fresh generation parks again
    assert mm.offer(5, 3, 4) == (3, 4)
