"""Circular Omega topology and destination-tag routing.

The EM-X prototype connects 80 EMC-Y processors through a *circular*
Omega network: switch boxes form a ring of perfect-shuffle stages, each
box hosting one processor on the third port pair of its 3×3 crossbar.
A hop applies the shuffle-exchange step

    ``node' = ((node << 1) | b) mod S``

where ``b`` is the next destination-tag bit.  Because the network is
circular, a packet simply keeps hopping until its current box equals the
destination tag — so the hop count between two boxes is the smallest
``k`` with the low ``n−k`` bits of ``src`` equal to the high ``n−k``
bits of ``dst`` (``S = 2ⁿ`` boxes).  Processor counts that are not a
power of two (the prototype's 80) are padded with pure switch boxes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ..errors import RoutingError

__all__ = ["Hop", "CircularOmegaTopology"]


class Hop(NamedTuple):
    """One shuffle-exchange traversal: leave ``node`` on output ``bit``."""

    node: int
    bit: int


def _next_pow2(x: int) -> int:
    p = 1
    while p < x:
        p <<= 1
    return p


class CircularOmegaTopology:
    """Routing arithmetic for ``n_pes`` processors on a shuffle ring."""

    def __init__(self, n_pes: int) -> None:
        if n_pes < 1:
            raise RoutingError(f"need at least one processor, got {n_pes}")
        self.n_pes = n_pes
        #: Number of switch boxes (next power of two ≥ max(n_pes, 2)).
        self.n_switches = _next_pow2(max(n_pes, 2))
        self.tag_bits = self.n_switches.bit_length() - 1
        self._mask = self.n_switches - 1
        # Route memoisation is per-instance; hop math is pure.
        self._route_cached = lru_cache(maxsize=None)(self._route)

    # ------------------------------------------------------------------
    def _check_pe(self, pe: int) -> None:
        if not (0 <= pe < self.n_pes):
            raise RoutingError(f"processor {pe} outside machine of {self.n_pes} PEs")

    def hop_count(self, src: int, dst: int) -> int:
        """Switch hops between the boxes of two processors (0 if same)."""
        self._check_pe(src)
        self._check_pe(dst)
        return len(self._route_cached(src, dst))

    def route(self, src: int, dst: int) -> tuple[Hop, ...]:
        """The hop sequence from ``src``'s box to ``dst``'s box."""
        self._check_pe(src)
        self._check_pe(dst)
        return self._route_cached(src, dst)

    def _route(self, src: int, dst: int) -> tuple[Hop, ...]:
        if src == dst:
            return ()
        n, mask = self.tag_bits, self._mask
        # Smallest k such that the low n-k bits of src equal the high
        # n-k bits of dst: after k shuffles the k freshly chosen tag
        # bits complete the destination address.
        for k in range(1, n + 1):
            keep = n - k
            if (src & ((1 << keep) - 1)) == (dst >> k):
                hops = []
                node = src
                for i in range(k):
                    bit = (dst >> (k - 1 - i)) & 1
                    hops.append(Hop(node, bit))
                    node = ((node << 1) | bit) & mask
                if node != dst:  # pragma: no cover - arithmetic invariant
                    raise RoutingError(f"route {src}->{dst} ended at {node}")
                return tuple(hops)
        raise RoutingError(f"no route {src}->{dst} in {self.n_switches}-box ring")  # pragma: no cover

    # ------------------------------------------------------------------
    def latency_cycles(self, src: int, dst: int) -> int:
        """Uncongested delivery latency: k hops land in k+1 cycles."""
        return self.hop_count(src, dst) + 1

    def mean_hops(self) -> float:
        """Average hop count over all ordered PE pairs (incl. self)."""
        total = sum(
            self.hop_count(s, d) for s in range(self.n_pes) for d in range(self.n_pes)
        )
        return total / (self.n_pes * self.n_pes)

    def graph(self):  # pragma: no cover - optional convenience
        """The switch digraph as a ``networkx.DiGraph`` (edges carry ``bit``)."""
        import networkx as nx

        g = nx.DiGraph()
        for node in range(self.n_switches):
            for bit in (0, 1):
                g.add_edge(node, ((node << 1) | bit) & self._mask, bit=bit)
        return g
