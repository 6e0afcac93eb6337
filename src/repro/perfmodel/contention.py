"""Node-level memory-bandwidth arbitration.

Each job resident on a node generates an *unconstrained demand* — the DRAM
traffic its processes would issue if never stalled on bandwidth.  The node
can supply at most its saturating STREAM aggregate for the number of cores
currently active (paper Fig 3).  When total demand exceeds supply, the
shortfall is divided **proportionally to demand**, which models the
fair-queueing behaviour of a shared memory controller and reproduces the
self-contention the paper measures for homogeneous bandwidth-hungry jobs
(MG at 16 processes/node achieves ~112 of its ~135 GB/s demand).

The paper's testbed lacks Intel MBA, so SNS does *estimated* bandwidth
accounting rather than hard allocation (Section 4.4); the same is true
here — arbitration is a physical model, not a scheduler-enforced limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.errors import HardwareModelError
from repro.apps.program import ProgramSpec
from repro.hardware.node_spec import NodeSpec


@dataclass(frozen=True)
class Slice:
    """One job's presence on one node.

    ``effective_ways`` includes the equal share of residual ways the
    scheduler gives away (see :meth:`repro.sim.node.MixTable.slices`).
    ``n_nodes`` is the job's total footprint (needed for the multi-node
    traffic multiplier).  ``bw_cap`` is an optional hard bandwidth limit:
    with Intel-MBA-style enforcement the memory controller clips a job's
    draw to its booking (paper Sections 4.4 and 5.2 — the testbed lacked
    MBA, so the paper could only estimate; we support both modes).
    """

    job_id: int
    program: ProgramSpec
    procs: int
    effective_ways: float
    n_nodes: int = 1
    bw_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.procs <= 0:
            raise HardwareModelError("slice must have at least one process")
        if self.effective_ways <= 0:
            raise HardwareModelError("slice must have positive effective ways")
        if self.n_nodes < 1:
            raise HardwareModelError("n_nodes must be >= 1")
        if self.bw_cap is not None and self.bw_cap < 0:
            raise HardwareModelError("bw_cap must be non-negative")

    def capacity_per_proc_mb(self, spec: NodeSpec) -> float:
        """Per-process LLC capacity (MB) of this slice on ``spec``."""
        return spec.cache.ways_to_mb(self.effective_ways) / self.procs

    def demand_gbps(self, spec: NodeSpec) -> float:
        """Unconstrained DRAM demand of the whole slice (GB/s)."""
        per_proc = self.program.demand_gbps_per_proc(
            self.capacity_per_proc_mb(spec), self.n_nodes,
            core_peak_bw=spec.bandwidth.core_peak,
        )
        return per_proc * self.procs


def arbitrate_node(spec: NodeSpec,
                   slices: Sequence[Slice]) -> Dict[int, float]:
    """Granted DRAM bandwidth (GB/s) per job on one node.

    Supply is the node's saturating aggregate for the total number of
    active cores; if total demand exceeds supply, each job receives a
    share proportional to its demand.
    """
    if not slices:
        return {}
    total_procs = sum(s.procs for s in slices)
    if total_procs > spec.cores:
        raise HardwareModelError(
            f"slices use {total_procs} cores on a {spec.cores}-core node"
        )
    ids = [s.job_id for s in slices]
    if len(set(ids)) != len(ids):
        raise HardwareModelError("duplicate job on one node")

    demands = {}
    for s in slices:
        demand = s.demand_gbps(spec)
        if s.bw_cap is not None:
            demand = min(demand, s.bw_cap)  # MBA-style hard throttle
        demands[s.job_id] = demand
    total_demand = left_sum(demands.values())
    supply = spec.bandwidth.aggregate(total_procs)
    if total_demand <= supply or total_demand == 0.0:
        return demands
    scale = supply / total_demand
    return {jid: d * scale for jid, d in demands.items()}


def node_network_load(spec: NodeSpec, slices: Sequence[Slice]) -> float:
    """Total average link utilization of a node's resident jobs.

    Each multi-node job occupies its nodes' network link for its
    network-time fraction of the run; summed utilizations above 1.0 mean
    the link is oversubscribed and communication phases stretch
    proportionally.
    """
    return left_sum(s.program.comm.network_fraction(s.n_nodes)
                    for s in slices if s.n_nodes > 1)


def left_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, from ``0.0``:
    the same bits on every Python version.  Builtin ``sum()`` of floats
    is compensated from Python 3.12, so it can round otherwise
    (DESIGN.md §13)."""
    total = 0.0
    for v in values:
        total += v
    return total
