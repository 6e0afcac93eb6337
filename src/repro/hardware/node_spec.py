"""Static description of one compute node (the paper's testbed node).

A :class:`NodeSpec` bundles the core count with the bandwidth and cache
models.  It is immutable; mutable runtime state (free cores, way
ledger, resident jobs) lives in the cluster's mix table
(:class:`repro.sim.node.MixTable`): each node is one mix id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.errors import HardwareModelError
from repro.hardware.cache import CacheModel
from repro.hardware.membw import BandwidthModel


@dataclass(frozen=True)
class NodeSpec:
    """Immutable node hardware description."""

    cores: int = units.REF_CORES_PER_NODE
    bandwidth: BandwidthModel = field(default_factory=BandwidthModel)
    cache: CacheModel = field(default_factory=CacheModel)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise HardwareModelError("node must have at least one core")

    @property
    def peak_bw(self) -> float:
        """Node aggregate peak memory bandwidth (GB/s)."""
        return self.bandwidth.peak

    @property
    def llc_ways(self) -> int:
        """Total CAT-allocatable LLC ways."""
        return self.cache.total_ways

    @property
    def llc_mb(self) -> float:
        """Total LLC capacity (MB)."""
        return self.cache.capacity_mb

    def min_nodes_for(self, processes: int) -> int:
        """Minimum node footprint for a ``processes``-wide job (the CE
        footprint: ceil(P / cores))."""
        if processes <= 0:
            raise HardwareModelError("process count must be positive")
        return -(-processes // self.cores)
