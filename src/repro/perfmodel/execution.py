"""Whole-job execution-time prediction.

A running job occupies one or more nodes; on each it has a number of
processes, an effective LLC allocation, and a granted DRAM bandwidth
(from :func:`repro.perfmodel.contention.arbitrate_node`).  This module
combines the per-node conditions into the job's execution time:

* per-node per-process instruction rate is the two-resource roofline
  ``min(R_cpu(capacity), granted/procs/bytes_per_instr)``;
* the *slowest node* governs the compute phase (bulk-synchronous
  parallelism — NPB, Spark stages, and replicated batches all behave
  this way at job granularity);
* communication time is added from the program's :class:`CommModel`,
  scaled by the job's scale factor and node count.

``job_speed`` normalizes against the program's Compact-n-Exclusive solo
run, which is the baseline for every relative number in the paper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import units
from repro.errors import HardwareModelError
from repro.apps.program import ProgramSpec
from repro.hardware.node_spec import NodeSpec


@dataclass(frozen=True)
class NodeConditions:
    """The conditions one job experiences on one node.

    ``net_load`` is the node's total average link utilization (all
    resident jobs); above 1.0 the link is oversubscribed and resident
    jobs' communication phases stretch by that factor.
    """

    procs: int
    capacity_per_proc_mb: float
    granted_gbps: float  # granted DRAM bandwidth for the whole slice
    net_load: float = 0.0

    def __post_init__(self) -> None:
        if self.procs <= 0:
            raise HardwareModelError("procs must be positive")
        if self.capacity_per_proc_mb < 0:
            raise HardwareModelError("capacity must be non-negative")
        if self.granted_gbps < 0:
            raise HardwareModelError("granted bandwidth must be non-negative")
        if self.net_load < 0:
            raise HardwareModelError("network load must be non-negative")


def process_rate(
    program: ProgramSpec,
    conditions: NodeConditions,
    n_nodes: int,
) -> float:
    """Instruction rate (instructions/s) of one process under
    ``conditions`` for a job spanning ``n_nodes`` nodes."""
    return roofline_rate(program, conditions.procs,
                         conditions.capacity_per_proc_mb,
                         conditions.granted_gbps, n_nodes)


def roofline_rate(program: ProgramSpec, procs: int, cap: float,
                  granted_gbps: float, n_nodes: int) -> float:
    """:func:`process_rate` from plain numbers: ``procs`` processes
    with ``cap`` MB of LLC each sharing ``granted_gbps``.  The running-
    job table's row rebuild calls it per condition key; building and
    validating a :class:`NodeConditions` there would cost more than the
    rate itself."""
    r_cpu = program.cpu_rate(cap, n_nodes)
    bpi = program.bytes_per_instr(cap, n_nodes)
    if bpi <= 0:
        return r_cpu
    granted_per_proc = granted_gbps / procs
    r_mem = granted_per_proc * units.GB / bpi
    return min(r_cpu, r_mem)


def scale_factor_of(n_nodes: int, procs: int, spec: NodeSpec) -> float:
    """Scale factor k of a ``procs``-process job on ``n_nodes`` nodes:
    footprint relative to the CE minimum footprint (paper Section 3.2)."""
    base = spec.min_nodes_for(procs)
    if n_nodes < base:
        raise HardwareModelError(
            f"{procs} processes cannot fit on {n_nodes} nodes"
        )
    return n_nodes / base


def job_time(
    program: ProgramSpec,
    procs: int,
    per_node: Sequence[NodeConditions],
    spec: NodeSpec,
    route_load: float = 0.0,
) -> float:
    """Projected start-to-finish time (s) of the job under the given
    per-node conditions (assumed to persist for the whole run).

    ``route_load`` is the utilization of the most loaded *fabric* link
    on the job's route (ToR uplinks / spine, DESIGN.md §13); the comm
    phase stretches by whichever is larger — node link or fabric link —
    once that exceeds 1.0.  The default ``0.0`` never changes the
    congestion value (``max(x, 0.0)`` is a bitwise no-op for the
    non-negative loads), which is what keeps flat-fabric runs
    bit-identical."""
    if not per_node:
        raise HardwareModelError("job must occupy at least one node")
    n_nodes = len(per_node)
    if sum(c.procs for c in per_node) != procs:
        raise HardwareModelError("per-node process counts do not sum to procs")
    if program.max_nodes is not None and n_nodes > program.max_nodes:
        raise HardwareModelError(
            f"{program.name} cannot span {n_nodes} nodes "
            f"(max {program.max_nodes})"
        )
    instr = program.instr_per_proc(procs)
    # Wide jobs usually see only a handful of distinct per-node
    # conditions (a 512-node job typically has <= 2, like
    # predict_exclusive_time exploits): evaluate each distinct one once.
    distinct = set(per_node)
    slowest = min(process_rate(program, c, n_nodes) for c in distinct)
    compute_time = instr / slowest
    k = scale_factor_of(n_nodes, procs, spec)
    t_ref = reference_time(program, procs, spec)
    comm_time = t_ref * program.comm.comm_fraction(k, n_nodes)
    # Network oversubscription on the job's most loaded node stretches
    # its communication phases (the link is shared proportionally); an
    # oversubscribed fabric link on the job's route binds the same way.
    congestion = max((c.net_load for c in distinct), default=0.0)
    if route_load > congestion:
        congestion = route_load
    if congestion > 1.0:
        comm_time *= congestion
    return compute_time + comm_time


def predict_exclusive_time(
    program: ProgramSpec,
    procs: int,
    n_nodes: int,
    spec: NodeSpec,
    ways: Optional[float] = None,
) -> float:
    """Execution time of an *exclusive* run: the job alone on each of
    ``n_nodes`` nodes, processes spread evenly, with ``ways`` LLC ways
    (full allocation when ``None``).

    This is what the paper's characterization experiments measure
    (Figs 2, 4, 5, 6, 13) and what the profiler's timing runs produce.
    """
    if n_nodes < 1:
        raise HardwareModelError("n_nodes must be >= 1")
    if procs < n_nodes:
        raise HardwareModelError("cannot spread fewer processes than nodes")
    eff_ways = float(spec.llc_ways) if ways is None else float(ways)
    if eff_ways <= 0:
        raise HardwareModelError("ways must be positive")

    base, extra = divmod(procs, n_nodes)
    # Nodes with equal process counts see identical exclusive conditions;
    # evaluating the (at most two) distinct splits keeps this O(1) even
    # for trace jobs spanning thousands of nodes.
    distinct = [base + 1] if extra else []
    if base > 0:
        distinct.append(base)
    slowest_rate = None
    for node_procs in distinct:
        cap = spec.cache.ways_to_mb(eff_ways) / node_procs
        demand = program.demand_gbps_per_proc(
            cap, n_nodes, core_peak_bw=spec.bandwidth.core_peak
        ) * node_procs
        granted = min(demand, spec.bandwidth.aggregate(node_procs))
        rate = process_rate(
            program, NodeConditions(node_procs, cap, granted), n_nodes
        )
        if slowest_rate is None or rate < slowest_rate:
            slowest_rate = rate
    assert slowest_rate is not None
    instr = program.instr_per_proc(procs)
    compute_time = instr / slowest_rate
    k = scale_factor_of(n_nodes, procs, spec)
    t_ref = reference_time(program, procs, spec)
    return compute_time + t_ref * program.comm.comm_fraction(k, n_nodes)


@functools.lru_cache(maxsize=4096)
def reference_time(program: ProgramSpec, procs: int, spec: NodeSpec) -> float:
    """The CE baseline: exclusive run at the minimum node footprint with
    full LLC ways.  All speedups and slowdowns in the paper are relative
    to this run."""
    base_nodes = spec.min_nodes_for(procs)
    # Avoid infinite recursion through job_time -> reference_time: compute
    # directly (comm fraction at k=1).
    instr = program.instr_per_proc(procs)
    per_node, extra = divmod(procs, base_nodes)
    # the most loaded node governs
    node_procs = per_node + (1 if extra else 0)
    cap = spec.cache.ways_to_mb(float(spec.llc_ways)) / node_procs
    demand = program.demand_gbps_per_proc(
        cap, base_nodes, core_peak_bw=spec.bandwidth.core_peak
    ) * node_procs
    granted = min(demand, spec.bandwidth.aggregate(node_procs))
    rate = process_rate(
        program, NodeConditions(node_procs, cap, granted), base_nodes
    )
    compute_time = instr / rate
    comm_fraction = program.comm.comm_fraction(1.0, base_nodes)
    # T = compute + f * T  =>  T = compute / (1 - f)
    if comm_fraction >= 1.0:  # pragma: no cover - guarded by CommModel
        raise HardwareModelError("communication fraction must be < 1")
    return compute_time / (1.0 - comm_fraction)


def job_speed(
    program: ProgramSpec,
    procs: int,
    per_node: Sequence[NodeConditions],
    spec: NodeSpec,
) -> float:
    """Execution speed relative to the CE solo baseline (>1 is faster)."""
    return reference_time(program, procs, spec) / job_time(
        program, procs, per_node, spec
    )
