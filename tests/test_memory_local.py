"""LocalMemory bounds, sparse semantics, block transfers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryFault
from repro.memory import LocalMemory


def test_unwritten_words_read_zero():
    m = LocalMemory(16)
    assert m.read(0) == 0
    assert m.read(15) == 0


def test_write_then_read():
    m = LocalMemory(16)
    m.write(3, 42)
    assert m.read(3) == 42


def test_floats_are_words_too():
    m = LocalMemory(4)
    m.write(0, 3.25)
    assert m.read(0) == 3.25


def test_out_of_bounds_read():
    m = LocalMemory(8)
    with pytest.raises(MemoryFault):
        m.read(8)
    with pytest.raises(MemoryFault):
        m.read(-1)


def test_out_of_bounds_write():
    m = LocalMemory(8)
    with pytest.raises(MemoryFault):
        m.write(8, 1)


def test_block_roundtrip():
    m = LocalMemory(32)
    m.write_block(4, [1, 2, 3, 4])
    assert m.read_block(4, 4) == [1, 2, 3, 4]


def test_block_read_includes_unwritten_zeros():
    m = LocalMemory(8)
    m.write(1, 9)
    assert m.read_block(0, 3) == [0, 9, 0]


def test_block_overrun_rejected_and_atomic():
    m = LocalMemory(8)
    with pytest.raises(MemoryFault):
        m.write_block(6, [1, 2, 3])
    # Nothing was written: the bounds check precedes the stores.
    assert m.read_block(6, 2) == [0, 0]


def test_negative_block_length():
    m = LocalMemory(8)
    with pytest.raises(MemoryFault):
        m.read_block(0, -1)


def test_empty_block_ops():
    m = LocalMemory(8)
    assert m.read_block(0, 0) == []
    assert m.write_block(0, []) == 0


def test_zero_size_rejected():
    with pytest.raises(MemoryFault):
        LocalMemory(0)


@given(st.data())
def test_block_write_equals_word_writes(data):
    size = data.draw(st.integers(min_value=1, max_value=64))
    values = data.draw(st.lists(st.integers(-1000, 1000), max_size=size))
    offset = data.draw(st.integers(min_value=0, max_value=size - len(values))) if len(values) <= size else 0
    a, b = LocalMemory(size), LocalMemory(size)
    a.write_block(offset, values)
    for i, v in enumerate(values):
        b.write(offset + i, v)
    assert a.read_block(0, size) == b.read_block(0, size)
