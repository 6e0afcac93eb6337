"""Cluster-level static description.

The paper evaluates on an 8-node testbed and, via trace-driven simulation,
on clusters of 4,096 / 8,192 / 16,384 / 32,768 nodes with the same node
configuration (Section 6.4).  :class:`ClusterSpec` captures that: a node
count plus one homogeneous :class:`NodeSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.hardware.fabric import FabricSpec
from repro.hardware.node_spec import NodeSpec


@dataclass(frozen=True)
class ClusterSpec:
    """Homogeneous cluster: ``num_nodes`` identical nodes.

    ``fabric`` optionally attaches a leaf-spine interconnect
    (:class:`~repro.hardware.fabric.FabricSpec`); ``None`` keeps the
    paper's flat full-bisection network, and a flat fabric
    (oversubscription 1:1) is contractually bit-identical to ``None``.
    """

    num_nodes: int = 8
    node: NodeSpec = field(default_factory=NodeSpec)
    fabric: Optional[FabricSpec] = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError("cluster must have at least one node")

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.node.cores


def testbed_cluster() -> ClusterSpec:
    """The paper's 8-node local test cluster."""
    return ClusterSpec(num_nodes=8)
