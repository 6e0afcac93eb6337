"""Per-node resource-demand estimation (paper Section 4.3, Fig 10).

Given the profiled IPC-LLC and BW-LLC curves at a chosen scale factor and
the job's slowdown threshold alpha:

1. read the full-allocation IPC (F-IPC) off the IPC-LLC curve;
2. the tolerable IPC is T-IPC = alpha * F-IPC;
3. the required ways ``w`` is the smallest allocation whose IPC reaches
   T-IPC (IPC-LLC curves are non-decreasing);
4. the bandwidth booking ``b`` is the BW-LLC value at ``w``.

Core counts follow the paper's footprint formula: a P-process job at
scale k spreads to ``n = k * ceil(P/T)`` nodes using ``c = ceil(P/n)``
cores per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.hardware.node_spec import NodeSpec
from repro.profiling.profiler import ScaleProfile


@dataclass(frozen=True)
class ResourceDemand:
    """What one job needs on each of its nodes."""

    scale: int
    n_nodes: int
    cores_per_node: int
    ways: int
    bw_per_node: float        # GB/s to book per node
    net_per_node: float = 0.0  # link-utilization fraction to book per node

    def __post_init__(self) -> None:
        if min(self.scale, self.n_nodes, self.cores_per_node, self.ways) < 1:
            raise SchedulingError("demand fields must be >= 1")
        if self.bw_per_node < 0:
            raise SchedulingError("bandwidth demand must be non-negative")
        if not 0.0 <= self.net_per_node <= 1.0:
            raise SchedulingError("network demand must be in [0, 1]")


def estimate_demand(
    profile: ScaleProfile,
    procs: int,
    alpha: float,
    spec: NodeSpec,
    network_fraction: float = 0.0,
) -> ResourceDemand:
    """Estimate (c, w, b) for running ``procs`` processes at the profiled
    scale under slowdown threshold ``alpha``; the way demand never drops
    below the node's associativity floor ``spec.cache.min_ways``.
    ``network_fraction`` is the job's per-node link utilization when the
    scheduler also manages the network dimension (the paper's
    Section 3.3 extension)."""
    if not 0.0 < alpha <= 1.0:
        raise SchedulingError("alpha must be in (0, 1]")
    if procs < 1:
        raise SchedulingError("procs must be >= 1")
    base_nodes = spec.min_nodes_for(procs)
    n_nodes = profile.scale * base_nodes
    cores = -(-procs // n_nodes)

    full_ways = float(spec.llc_ways)
    f_ipc = profile.ipc_llc(full_ways)
    t_ipc = alpha * f_ipc
    w_raw = profile.ipc_llc.min_x_reaching(t_ipc)
    ways = int(min(spec.llc_ways,
                   max(spec.cache.min_ways, math.ceil(w_raw - 1e-9))))
    bw_per_node = profile.bw_llc(float(ways)) * cores
    return ResourceDemand(
        scale=profile.scale,
        n_nodes=n_nodes,
        cores_per_node=cores,
        ways=ways,
        bw_per_node=bw_per_node,
        net_per_node=min(1.0, network_fraction),
    )


def estimate_demands_batch(
    entries: Sequence[Tuple[ScaleProfile, float]],
    procs: int,
    alpha: float,
    spec: NodeSpec,
    counters: Optional[Dict[str, int]] = None,
) -> List[ResourceDemand]:
    """:func:`estimate_demand` for a whole candidate-scale sweep:
    ``entries`` pairs each scale's profile with its network fraction.
    ``counters``, when given, gains the sweep's curve queries (three per
    scale: F-IPC, the way inversion and the bandwidth read) under
    ``vec_curve_evals``.
    """
    demands = [
        estimate_demand(profile, procs, alpha, spec, fraction)
        for profile, fraction in entries
    ]
    if counters is not None:
        counters["vec_curve_evals"] += 3 * len(entries)
    return demands
