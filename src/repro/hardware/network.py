"""Interconnect model (EDR InfiniBand class, paper Sections 2 and 6.1).

The paper's testbed network sustains about 6.8 GB/s per node — far below
the >100 GB/s intra-node memory bandwidth, but communication happens with
much lower *intensity* than memory access (Fig. 7), which is why spreading
can still win.  The network model holds the per-node injection
bandwidth and base message latency of that interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import HardwareModelError


def validate_link(link_bw: float, latency_us: float) -> None:
    """Shared link-parameter validation (used here and by
    :class:`repro.hardware.fabric.FabricSpec`)."""
    if link_bw <= 0:
        raise HardwareModelError("link bandwidth must be positive")
    if latency_us < 0:
        raise HardwareModelError("latency must be non-negative")


@dataclass(frozen=True)
class NetworkModel:
    """Flat full-bisection interconnect.

    Parameters
    ----------
    link_bw:
        Per-node injection bandwidth in GB/s.
    latency_us:
        Base one-way message latency in microseconds.
    """

    link_bw: float = units.REF_NETWORK_BW
    latency_us: float = 1.5

    def __post_init__(self) -> None:
        validate_link(self.link_bw, self.latency_us)
