"""Tests for the benchmark's own machinery, at a tiny shape.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that reads whatever the test sets."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_nested_self_time_subtracts_each_child_once():
    clock = FakeClock()
    spans = layers.SpanClock(clock)

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 10
        wrapped_leaf()
        clock.now += 10

    def root():
        clock.now += 100
        wrapped_middle()
        wrapped_leaf()
        clock.now += 1

    wrapped_leaf = spans.wrap("guest", leaf, "leaf")
    wrapped_middle = spans.wrap("network", middle, "middle")
    spans.wrap("sim", root, "root")()

    assert spans.self_ns == {"sim": 101, "network": 20, "guest": 10}
    assert spans.outer_ns == {"sim": 131}
    assert spans.calls == {"root": 1, "middle": 1, "leaf": 2}
    assert spans.coverage == 1.0


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    spans = layers.SpanClock(clock)

    def boom():
        clock.now += 7
        raise KeyError("x")

    wrapped = spans.wrap("network", boom, "boom")

    def root():
        with pytest.raises(KeyError):
            wrapped()
        clock.now += 3

    spans.wrap("sim", root, "root")()
    assert spans.self_ns == {"network": 7, "sim": 3}


def test_guest_proxy_keeps_send_and_stopiteration_semantics():
    def thread():
        got = yield "first"
        got = yield ("second", got)
        return ("done", got)

    spans = layers.SpanClock()
    proxy = layers.GuestProxy(thread(), spans)
    assert proxy.send(None) == "first"
    assert proxy.send(41) == ("second", 41)
    with pytest.raises(StopIteration) as stop:
        proxy.send(42)
    assert stop.value.value == ("done", 42)
    with pytest.raises(StopIteration):
        proxy.send(None)
    assert spans.calls["guest.send"] == 4
    assert spans.self_ns["guest"] > 0


def test_installed_restores_every_entry_point():
    from repro.machine.machine import EMX

    before = [(cls, name, cls.__dict__.get(name))
              for _layer, cls, names in layers.entry_points() for name in names]
    create_thread = EMX.create_thread
    with layers.installed(layers.SpanClock()):
        assert EMX.create_thread is not create_thread
    assert EMX.create_thread is create_thread
    after = [(cls, name, cls.__dict__.get(name)) for cls, name, _ in before]
    assert after == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_reports_are_byte_identical(name):
    wl = workloads.WORKLOADS[name]
    untraced = workloads.run_point(wl, 2, 0, n_pes=4, npp=8)
    spans = layers.SpanClock()
    with layers.installed(spans):
        traced = workloads.run_point(wl, 2, 0, n_pes=4, npp=8)
    assert untraced.error is None and traced.error is None
    dump = lambda p: json.dumps(workloads.comparable(p.report), sort_keys=True)  # noqa: E731
    assert dump(traced) == dump(untraced)
    assert spans.outer_ns["sim"] > 0
    assert spans.calls["guest.send"] > 0
    assert spans.coverage == pytest.approx(1.0)
    if wl.observed:
        assert traced.obs_events == untraced.obs_events > 0
        assert spans.self_ns["obs"] > 0


def test_profile_layers_splits_helper_time_over_callers():
    exu = ("/x/src/repro/processor/exu.py", 1, "_run_burst")
    ibu = ("/x/src/repro/processor/ibu.py", 1, "_build_reply")
    helper = ("/x/src/repro/packet/packet.py", 1, "__init__")
    builtin = ("~", 0, "<built-in method builtins.len>")
    raw = {
        exu: (1, 1, 2.0, 5.0, {}),
        ibu: (1, 1, 1.0, 2.0, {}),
        helper: (4, 4, 4.0, 4.0, {exu: (3, 3, 3.0, 3.0), ibu: (1, 1, 1.0, 1.0)}),
        builtin: (2, 2, 0.5, 0.5, {helper: (2, 2, 0.5, 0.5)}),
    }
    shares = layers.profile_layers(raw)
    assert shares["processor.exu"] == pytest.approx(2.0 + 3.0 + 0.375)
    assert shares["processor.ibu"] == pytest.approx(1.0 + 1.0 + 0.125)
    assert "other" not in shares


def test_module_of_maps_source_paths():
    assert layers.module_of("/a/src/repro/sim/engine.py") == "repro.sim.engine"
    assert layers.module_of("/a/src/repro/obs/__init__.py") == "repro.obs"
    assert layers.module_of("/usr/lib/python3.11/heapq.py") is None
    assert layers.direct_layer(("<emc-codegen:worker>", 1, "worker")) == "guest"
    assert layers.direct_layer(
        ("/a/src/repro/machine/machine.py", 1, "barrier_release")) == "core.sync"
