"""Closed-form load model of the circular Omega fabric.

Predicts the *loaded* remote-read latency from first principles, the
counterpart of the paper's "average remote memory latency, when the
network is normally loaded, is approximately 1 to 2 µs".  Every switch
output port is a deterministic server (one 2-word packet per
``port_cycles_per_packet`` cycles); traffic offered by P processors at
``packets_per_cycle_per_pe`` spreads over the fabric's ports along
routes of the topology's mean hop count, and M/D/1 waiting time

    W = ρ · S / (2 · (1 − ρ))

adds per-hop queueing on top of the virtual cut-through base latency.
A ``hotspot_factor`` scales the average port utilisation up to the
busiest port's, because shuffle-ring routes concentrate flows (the
measured factor is available from
:meth:`repro.network.OmegaNetworkBase.hottest_ports`).

Experiment A7 cross-validates this model against the simulator's
measured latencies across offered loads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..network.topology import CircularOmegaTopology

__all__ = ["OmegaLoadModel"]


@dataclass(frozen=True)
class OmegaLoadModel:
    """Analytic latency/utilisation model for one machine shape."""

    n_pes: int
    port_cycles_per_packet: int = 2
    eject_cycles: int = 1
    dma_service: int = 3
    #: Ratio of busiest-port to average-port utilisation.
    hotspot_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.n_pes < 1:
            raise ConfigError(f"n_pes must be >= 1, got {self.n_pes}")
        if self.port_cycles_per_packet < 1:
            raise ConfigError("port service must be >= 1 cycle")
        if self.hotspot_factor < 1.0:
            raise ConfigError(f"hotspot factor must be >= 1, got {self.hotspot_factor}")

    # ------------------------------------------------------------------
    @property
    def topology(self) -> CircularOmegaTopology:
        return CircularOmegaTopology(self.n_pes)

    @property
    def mean_hops(self) -> float:
        """Average switch hops per packet over all PE pairs."""
        return self.topology.mean_hops()

    @property
    def fabric_ports(self) -> int:
        """Switch output ports available to carry traffic."""
        return 2 * self.topology.n_switches

    # ------------------------------------------------------------------
    def mean_port_utilization(self, packets_per_cycle_per_pe: float) -> float:
        """Average port utilisation at the given per-PE injection rate."""
        if packets_per_cycle_per_pe < 0:
            raise ConfigError(f"negative offered load {packets_per_cycle_per_pe}")
        offered = self.n_pes * packets_per_cycle_per_pe  # packets/cycle
        port_work = offered * self.mean_hops * self.port_cycles_per_packet
        return port_work / self.fabric_ports

    def hot_port_utilization(self, packets_per_cycle_per_pe: float) -> float:
        """Busiest-port utilisation (mean × hotspot factor, capped)."""
        return min(0.999, self.mean_port_utilization(packets_per_cycle_per_pe) * self.hotspot_factor)

    @staticmethod
    def md1_wait(rho: float, service: float) -> float:
        """M/D/1 mean waiting time for utilisation ``rho``."""
        if not (0.0 <= rho < 1.0):
            raise ConfigError(f"utilisation {rho} outside [0, 1)")
        return rho * service / (2.0 * (1.0 - rho))

    # ------------------------------------------------------------------
    def one_way_latency(self, packets_per_cycle_per_pe: float = 0.0) -> float:
        """Mean injection-to-delivery cycles at the offered load.

        Uses the *mean* port utilisation for the per-hop wait — the
        average packet sees average ports; the hotspot factor only
        matters for where the fabric saturates.
        """
        rho = min(0.999, self.mean_port_utilization(packets_per_cycle_per_pe))
        per_hop_wait = self.md1_wait(rho, self.port_cycles_per_packet)
        base = self.mean_hops + 1  # k hops in k+1 cycles
        return base + self.mean_hops * per_hop_wait + (self.eject_cycles - 1)

    def read_rtt(self, packets_per_cycle_per_pe: float = 0.0) -> float:
        """Round-trip cycles of a remote read: request + DMA + reply."""
        return 2.0 * self.one_way_latency(packets_per_cycle_per_pe) + self.dma_service

    def saturation_load(self) -> float:
        """Per-PE injection rate (packets/cycle) that saturates the
        fabric's hottest ports."""
        # hot utilisation == 1  =>  mean == 1 / hotspot_factor.
        return self.fabric_ports / (
            self.n_pes * self.mean_hops * self.port_cycles_per_packet * self.hotspot_factor
        )
