"""Metrics layer: counters, breakdown, overlap, report formatting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.metrics import (
    Breakdown,
    Bucket,
    PECounters,
    SwitchKind,
    aggregate_breakdown,
    format_table,
    overlap_efficiency,
    overlap_series,
)
from repro.metrics.report import format_series


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_cycle_buckets_accumulate():
    c = PECounters(0)
    c.add_cycles(Bucket.COMPUTATION, 10)
    c.add_cycles(Bucket.COMPUTATION, 5)
    c.add_cycles(Bucket.OVERHEAD, 1)
    assert c.cycles[Bucket.COMPUTATION] == 15
    assert c.total_cycles == 16


def test_negative_charge_rejected():
    with pytest.raises(SimulationError):
        PECounters(0).add_cycles(Bucket.IDLE, -1)


def test_charge_span_fills_three_buckets_and_notes_the_span():
    c = PECounters(0)
    assert c.charge_span(10, 5, 1, 4) == 20
    assert c.charge_span(30, 0, 0, 10) == 40
    assert [c.cycles[b] for b in (Bucket.COMPUTATION, Bucket.OVERHEAD, Bucket.SWITCHING)] == [
        5, 1, 14,
    ]
    assert (c.first_active, c.last_active) == (10, 40)
    with pytest.raises(SimulationError, match="negative cycle charge -1 to Bucket.OVERHEAD"):
        c.charge_span(40, 1, -1, 0)


def test_switch_counting():
    c = PECounters(0)
    c.add_switch(SwitchKind.REMOTE_READ, 3)
    c.add_switch(SwitchKind.ITER_SYNC)
    assert c.switches[SwitchKind.REMOTE_READ] == 3
    assert c.total_switches == 4


def test_busy_span_and_accounting_check():
    c = PECounters(0)
    c.charge_span(10, 15, 0, 0)  # active 10..25
    c.charge_span(30, 10, 0, 0)  # active 30..40: 25 computation cycles in all
    assert c.busy_span == 30  # 40 - 10
    with pytest.raises(SimulationError, match="accounting mismatch"):
        c.check_accounting()
    c.add_cycles(Bucket.COMMUNICATION, 5)
    c.check_accounting()


def test_accounting_check_noop_when_never_active():
    PECounters(0).check_accounting()  # must not raise


# ----------------------------------------------------------------------
# Breakdown
# ----------------------------------------------------------------------
def test_breakdown_percentages_sum_to_100():
    b = Breakdown(50, 10, 30, 10, idle=7)
    pct = b.percentages()
    assert sum(pct.values()) == pytest.approx(100.0)
    assert pct["computation"] == pytest.approx(50.0)
    assert b.accounted == 100
    assert b.total == 107


def test_breakdown_of_empty_run_rejected():
    with pytest.raises(SimulationError):
        Breakdown(0, 0, 0, 0).fractions()


def test_breakdown_addition():
    b = Breakdown(1, 2, 3, 4, 5) + Breakdown(10, 20, 30, 40, 50)
    assert (b.computation, b.overhead, b.communication, b.switching, b.idle) == (
        11, 22, 33, 44, 55,
    )


def test_aggregate_breakdown_sums_pes():
    c0, c1 = PECounters(0), PECounters(1)
    c0.add_cycles(Bucket.COMPUTATION, 7)
    c1.add_cycles(Bucket.SWITCHING, 3)
    c1.add_cycles(Bucket.IDLE, 2)
    agg = aggregate_breakdown([c0, c1])
    assert agg.computation == 7
    assert agg.switching == 3
    assert agg.idle == 2


# ----------------------------------------------------------------------
# Overlap
# ----------------------------------------------------------------------
def test_overlap_efficiency_basic():
    assert overlap_efficiency(100.0, 65.0) == pytest.approx(0.35)
    assert overlap_efficiency(100.0, 100.0) == 0.0


def test_overlap_negative_past_optimum():
    assert overlap_efficiency(100.0, 120.0) == pytest.approx(-0.2)


def test_overlap_invalid_inputs():
    with pytest.raises(SimulationError):
        overlap_efficiency(0.0, 1.0)
    with pytest.raises(SimulationError):
        overlap_efficiency(1.0, -1.0)


def test_overlap_series_requires_baseline():
    with pytest.raises(SimulationError):
        overlap_series({2: 1.0})


def test_overlap_series_values():
    e = overlap_series({1: 10.0, 2: 4.0, 4: 1.0})
    assert e[1] == 0.0
    assert e[2] == pytest.approx(0.6)
    assert e[4] == pytest.approx(0.9)


@given(st.dictionaries(st.integers(2, 16), st.floats(0, 1e3), min_size=1).map(
    lambda d: {1: 100.0, **d}
))
def test_overlap_series_bounded_above_by_one(series):
    for h, e in overlap_series(series).items():
        assert e <= 1.0


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------
def test_format_table_alignment_and_rule():
    out = format_table(["h", "value"], [[1, 2.5], [16, 0.25]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert set(lines[2]) <= {"-", " "}
    assert len(lines) == 5
    assert len({len(line) for line in lines[1:]}) == 1  # all rows align


def test_format_table_scientific_for_small_values():
    out = format_table(["x"], [[0.000012]])
    assert "e-05" in out


def test_format_series():
    out = format_series("comm", {1: 0.5, 2: 0.25}, unit="s")
    assert "comm [s]" in out
    assert out.splitlines()[-1].strip().startswith("2")
