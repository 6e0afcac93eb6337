"""Batched (columnar) bandwidth-arbitration kernel.

A refresh on a large cluster re-arbitrates many dirty nodes at once; the
scalar :func:`repro.perfmodel.contention.arbitrate_node` walks each
node's slices through Python dicts one at a time.  This module solves
*all* of a refresh's dirty nodes in one pass over a columnar slice
table: the per-slice columns (procs, effective ways, bw caps) are packed
into numpy arrays, the elementwise algebra (LLC capacity, demand,
MBA clipping, grant scaling) runs vectorized, and only the per-node
segment reductions stay in Python.

The batch counters live on the :class:`repro.perfmodel.context.PerfContext`
passed by the caller; the module itself is stateless, so concurrent
simulations never share or race on anything here.

Bit-identity with the scalar reference is a hard requirement (the
equivalence gate in ``tests/test_perf_equivalence.py``), which dictates
two implementation choices:

* elementwise numpy ops (multiply / divide / minimum) are single IEEE
  operations and reproduce the scalar path exactly, so those vectorize;
* per-node demand totals must **not** use ``np.add.reduceat`` — pairwise
  summation reorders the additions and diverges from Python's
  left-to-right ``sum()`` in the last ulp even for 3-element segments —
  so segment sums run over ``.tolist()`` slices in slice order, exactly
  like the reference's ``sum(demands.values())``.

With the context's fast paths disabled (``SimConfig(perf_caches=False)``)
every call routes through the scalar reference kernel per node.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import HardwareModelError
from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.context import PerfContext
from repro.perfmodel.contention import Slice, arbitrate_node, node_network_load


def arbitrate_nodes(
    ctx: PerfContext, spec: NodeSpec, tables: Sequence[Sequence[Slice]]
) -> List[Tuple[Dict[int, float], float]]:
    """``(grants, network load)`` per node for a batch of slice tables.

    Bit-identical to calling ``(arbitrate_node(spec, slices),
    node_network_load(spec, slices))`` for each table in turn.
    """
    if not ctx.enabled:
        return [
            (
                arbitrate_node(spec, slices),
                node_network_load(spec, slices),
            )
            for slices in tables
        ]

    counters = ctx.batch_counters
    counters["batch_calls"] += 1
    counters["batch_nodes"] += len(tables)

    # Validate per node (same errors as the scalar kernel) while packing
    # the columnar table.
    flat: List[Slice] = []
    bounds: List[int] = [0]
    node_procs: List[int] = []
    for slices in tables:
        total_procs = sum(s.procs for s in slices)
        if total_procs > spec.cores:
            raise HardwareModelError(
                f"slices use {total_procs} cores on a {spec.cores}-core node"
            )
        ids = [s.job_id for s in slices]
        if len(set(ids)) != len(ids):
            raise HardwareModelError("duplicate job on one node")
        flat.extend(slices)
        bounds.append(len(flat))
        node_procs.append(total_procs)
    counters["batch_slices"] += len(flat)
    if not flat:
        return [({}, 0.0) for _ in tables]

    procs = np.array([s.procs for s in flat], dtype=np.float64)
    eff_ways = np.array([s.effective_ways for s in flat], dtype=np.float64)
    # capacity_per_proc_mb: ways_to_mb(eff) / procs == eff * mb_per_way / procs
    caps = eff_ways * spec.cache.mb_per_way() / procs
    caps_list = caps.tolist()

    core_peak = spec.bandwidth.core_peak
    per_proc = np.array(
        [
            s.program.demand_gbps_per_proc(caps_list[i], s.n_nodes,
                                           core_peak_bw=core_peak)
            for i, s in enumerate(flat)
        ],
        dtype=np.float64,
    )
    demand = per_proc * procs
    bw_caps = np.array(
        [np.inf if s.bw_cap is None else s.bw_cap for s in flat],
        dtype=np.float64,
    )
    demand = np.minimum(demand, bw_caps)  # MBA-style hard throttle
    demand_list = demand.tolist()

    out: List[Tuple[Dict[int, float], float]] = []
    for k, slices in enumerate(tables):
        if not slices:
            out.append(({}, 0.0))
            continue
        lo, hi = bounds[k], bounds[k + 1]
        segment = demand_list[lo:hi]
        # Left-to-right Python sum == the reference's sum(demands.values()).
        total_demand = sum(segment)
        supply = spec.bandwidth.aggregate(node_procs[k])
        if total_demand <= supply or total_demand == 0.0:
            grants = segment
        else:
            scale = supply / total_demand
            grants = (demand[lo:hi] * scale).tolist()
        net_load = sum(
            s.program.comm.network_fraction(s.n_nodes)
            for s in slices
            if s.n_nodes > 1
        )
        out.append((dict(zip((s.job_id for s in slices), grants)), net_load))
    return out
