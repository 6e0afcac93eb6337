"""Hardware models: memory bandwidth, LLC/CAT, fabric, node and cluster specs.

These models are the simulated substitute for the paper's physical testbed
(dual Xeon E5-2680 v4 nodes on EDR InfiniBand).  Each model is calibrated
against the numbers the paper reports (see DESIGN.md Section 5).
"""

from repro.hardware.membw import BandwidthModel
from repro.hardware.cache import CacheModel
from repro.hardware.fabric import FabricSpec
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec

__all__ = [
    "BandwidthModel",
    "CacheModel",
    "FabricSpec",
    "NodeSpec",
    "ClusterSpec",
]
