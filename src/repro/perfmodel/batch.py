"""Arbitration of a batch of slice tables.

One call solves every slice table a cluster refresh could not take from
its view cache, each with the scalar kernels of
:mod:`repro.perfmodel.contention`.  The kernel is pure: the cluster that
calls it counts its calls, tables and slices
(``ClusterState.arbitration_batch``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.contention import Slice, arbitrate_node, node_network_load


def arbitrate_nodes(
    spec: NodeSpec, tables: Sequence[Sequence[Slice]]
) -> List[Tuple[Dict[int, float], float]]:
    """``(grants, network load)`` per slice table."""
    return [(arbitrate_node(spec, s), node_network_load(spec, s))
            for s in tables]
