"""LLC capacity model and the CAT way-partition semantics it serves.

Models the Intel Cache Allocation Technology semantics the paper relies on
(Sections 3.3, 4.4, 5.1):

* a node's LLC exposes a fixed number of ways (20 on the testbed);
* each job on a node receives a disjoint way allocation (minimum 2 ways,
  at most 16 partitions per node);
* ways not allocated to any job are *not* wasted — the scheduler gives
  them away to resident jobs in equal shares, reclaiming them whenever a
  new job is dispatched to the node (Section 4.4).

:class:`CacheModel` carries the static cache geometry.  The per-node
way accounting (dedicated ways, the partition limit, the residual
giveaway) lives in the cluster's resident-mix table
(:class:`repro.sim.node.MixTable`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import HardwareModelError


@dataclass(frozen=True)
class CacheModel:
    """Static LLC geometry of one node."""

    total_ways: int = units.REF_LLC_WAYS
    capacity_mb: float = units.REF_LLC_MB
    min_ways: int = units.MIN_LLC_WAYS
    max_partitions: int = units.MAX_LLC_PARTITIONS

    def __post_init__(self) -> None:
        if self.total_ways <= 0:
            raise HardwareModelError("total_ways must be positive")
        if self.capacity_mb <= 0:
            raise HardwareModelError("capacity_mb must be positive")
        if not 0 < self.min_ways <= self.total_ways:
            raise HardwareModelError("min_ways must be in [1, total_ways]")
        if self.max_partitions <= 0:
            raise HardwareModelError("max_partitions must be positive")

    def mb_per_way(self) -> float:
        """LLC capacity represented by one way, in MB."""
        return self.capacity_mb / self.total_ways

    def ways_to_mb(self, ways: float) -> float:
        """Capacity (MB) of a (possibly fractional, for residual-sharing)
        way count."""
        if ways < 0:
            raise HardwareModelError("ways must be non-negative")
        return ways * self.mb_per_way()
