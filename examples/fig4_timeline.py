#!/usr/bin/env python3
"""Reproduce the paper's Figure 4: two processors, two threads each,
sorting eight elements — as a live timeline.

Px holds (2,5,6,7) and Py holds (1,3,4,8); each processor's two threads
read the mate's elements through split-phase reads and merge in token
order.  Recording the run's burst events, the rendered timeline shows
exactly the paper's story: interleaved read bursts, dormant windows
where both threads await replies (unmasked communication), and the
serialized merges at the end.

Run:  python examples/fig4_timeline.py
"""

from repro.apps import run_bitonic
from repro.obs import Category, EventBus, burst_timeline
from repro.trace import render_timeline, utilization


def main() -> None:
    # The paper's Fig. 4 data: one compare-split step over two PEs.
    data = [2, 5, 6, 7, 1, 3, 4, 8]
    bus = EventBus()
    spans: list = []
    bus.subscribe(spans.append, [Category.BURST])
    result = run_bitonic(n_pes=2, n=8, h=2, data=data, obs=bus)
    assert result.sorted_ok
    print("sorted output:", result.output)
    print()

    traces = {pe: [] for pe in range(2)}
    traces.update(burst_timeline(spans))
    print(render_timeline(traces, width=76))
    print()
    for pe, events in traces.items():
        print(f"PE {pe} EXU utilization: {utilization(events) * 100:.0f}%")


if __name__ == "__main__":
    main()
