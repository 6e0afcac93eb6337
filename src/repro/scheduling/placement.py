"""Node search and selection (paper Section 4.4).

SNS reduces fragmentation by first clustering nodes into groups with the
same idle-core count and trying to satisfy a job within one group; only
if no single group suffices does it search the whole cluster.  Among the
qualifying nodes it picks the *idlest* ones — lowest occupancy metric
``Co + Bo + beta * Wo`` (occupied core, bandwidth, and LLC-way
fractions), with the LLC term weighted by ``beta = 2`` because cache
interference hurts most.

Most candidate scales SNS tries do not fit, so before walking the
buckets :func:`find_nodes` asks the cluster for one exact count of the
nodes that could host the slice: the walk succeeds iff that count
reaches the node demand, so it runs only for demands it satisfies
(DESIGN.md §7).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SchedulingError, SimulationError
from repro.sim.cluster import ClusterState


def split_procs(procs: int, node_ids: Sequence[int]) -> np.ndarray:
    """Divide ``procs`` processes across nodes as evenly as possible
    (the paper's load-balanced split: 32 processes on 2 nodes -> 16+16),
    as the per-node process array aligned with ``node_ids``: the first
    ``procs % n`` nodes take one extra."""
    n = len(node_ids)
    if n < 1:
        raise SchedulingError("cannot split across zero nodes")
    if procs < n:
        raise SchedulingError(f"cannot split {procs} processes onto {n} nodes")
    base, extra = divmod(procs, n)
    out = np.full(n, base, dtype=np.int64)
    if extra:
        out[:extra] = base + 1
    return out


def find_nodes(
    cluster: ClusterState,
    n_nodes: int,
    cores: int,
    ways: int,
    bw: float,
    beta: float,
    net: float = 0.0,
    locality: bool = False,
) -> Optional[np.ndarray]:
    """Find ``n_nodes`` nodes that can each host a slice of ``cores``
    cores, ``ways`` dedicated LLC ways, ``bw`` GB/s booked memory
    bandwidth, and ``net`` booked link-utilization fraction.

    Returns the chosen node ids (lowest occupancy metric first) or
    ``None`` when the demand cannot be met anywhere — exactly what the
    bucket walk (:func:`_walk`) alone returns, but a demand that does
    not fit is ruled out before any walk (DESIGN.md §7).

    ``locality`` routes every selection through the rack-aware
    :meth:`~repro.sim.cluster.ClusterState.pick_idlest` (fill within one
    rack before crossing the spine, rack tie-break otherwise; DESIGN.md
    §13).  The flag changes *which* qualifying nodes are chosen, never
    whether a demand is satisfiable, so the negative search cache stays
    keyed on the demand alone.  It is not inert without an active
    fabric: the idle pick then ranks idle nodes by node id instead of
    taking them in arrival order (DESIGN.md §13).
    """
    if n_nodes < 1 or cores < 1:
        raise SchedulingError("n_nodes and cores must be >= 1")

    # Negative search cache: failure here means fewer than n_nodes
    # cluster-wide can host the demand, which placements (pure
    # consumption) cannot undo — so a failed demand tuple keeps failing
    # until the next slice *removal*.  Congested replays retry
    # near-identical demands (same program + process count) across many
    # queued jobs, so a hit skips even the count below.
    epoch = cluster.release_epoch
    cache_epoch, failed = cluster.find_fail
    if cache_epoch != epoch:
        failed = set()
        cluster.find_fail = (epoch, failed)
    key = (n_nodes, cores, ways, bw, net, beta)
    if key in failed:
        cluster.counters["find_fail_hits"] += 1
        return None

    # Fast fail on congested clusters: the core dimension alone rules the
    # request out without touching any node.
    if cluster.count_with_free_cores(cores) < n_nodes:
        failed.add(key)
        return None

    # The walk's first bucket, answered without counting: small jobs on
    # a cluster with idle capacity end here.
    idle = _idle_hosts(cluster, cores, ways, bw, net)
    if idle >= n_nodes:
        return _pick_idle(cluster, idle, n_nodes, beta, locality)

    # Exact precheck: the walk succeeds iff at least n_nodes up nodes
    # qualify.  When cores are the only dimension tested, the core
    # count above already was that count.
    if (cluster.partitioned or bw > 0.0 or net > 0.0) \
            and cluster.count_hosts(cores, ways, bw, net) < n_nodes:
        failed.add(key)
        return None

    chosen = _walk(cluster, n_nodes, cores, ways, bw, beta, net, locality)
    if chosen is None:
        raise SimulationError(
            f"count/walk contract broken: count_hosts admitted {n_nodes}"
            f" x {cores}-core slices the bucket walk could not place")
    return chosen


def _idle_hosts(cluster: ClusterState, cores: int, ways: int, bw: float,
                net: float) -> int:
    """How many fully idle nodes can host the slice: all or none.  Idle
    nodes are interchangeable (every slice pins a core, so they hold no
    slice: they all carry the empty mix, metric 0), so the empty mix's
    entry of the mix-level demand test decides for all of them instead
    of a scan of thousands on large clusters.  That test has no ToR
    headroom term (DESIGN.md §11)."""
    idle = cluster.idle_count()
    if idle and not cluster._ways_unplaceable(ways) \
            and cluster.mixes.fits(cores, ways, bw, net, 0):
        return idle
    return 0


def _pick_idle(cluster: ClusterState, idle: int, n_nodes: int, beta: float,
               locality: bool) -> np.ndarray:
    """``n_nodes`` of the ``idle`` qualifying idle nodes: the first in
    bucket order (they all have metric 0), or rack-aware under
    locality, where their racks differ."""
    if locality and idle > n_nodes:
        return cluster.pick_idlest(cluster.bucket(cluster.spec.node.cores),
                                   n_nodes, beta, rack_aware=True)
    return cluster.first_idle(n_nodes)


def _pick(cluster: ClusterState, ids: np.ndarray, n_nodes: int,
          beta: float, locality: bool) -> np.ndarray:
    """The ``n_nodes`` idlest of the qualifying ``ids``."""
    if len(ids) <= n_nodes:
        return ids
    return cluster.pick_idlest(ids, n_nodes, beta, rack_aware=locality)


def _walk(cluster: ClusterState, n_nodes: int, cores: int, ways: int,
          bw: float, beta: float, net: float = 0.0,
          locality: bool = False) -> Optional[np.ndarray]:
    """The two-pass bucket search of paper §4.4, with no precheck.

    Idlest groups first: selecting the emptiest compatible group keeps
    per-group consumption even and preserves fuller groups for compact
    jobs.  A bucket is materialized only when the walk reaches it.
    """
    # Bound per-call work on huge clusters: scanning a few hundred
    # candidates is enough to pick well-placed nodes; exhaustive scans of
    # tens of thousands of part-full nodes would dominate runtime.
    scan_cap = max(256, 4 * n_nodes)
    total_cores = cluster.spec.node.cores
    per_bucket: List[np.ndarray] = []
    for free in cluster.free_levels(cores):
        if free == total_cores:
            idle = _idle_hosts(cluster, cores, ways, bw, net)
            if idle >= n_nodes:
                return _pick_idle(cluster, idle, n_nodes, beta, locality)
            if not idle:
                continue
            hosts = cluster.bucket(free)
        else:
            hosts = cluster.scan_hosts(cluster.bucket(free), cores, ways,
                                       bw, net, scan_cap, bucket=free)
            if len(hosts) >= n_nodes:
                return _pick(cluster, hosts, n_nodes, beta, locality)
        per_bucket.append(hosts)
    # No single group suffices: search the whole cluster, reusing the
    # first pass's lists (nothing changed in between).  The idle group,
    # if any, was necessarily smaller than n_nodes, so this pool stays
    # small.
    pooled = 0
    for i, hosts in enumerate(per_bucket):
        pooled += len(hosts)
        if pooled >= scan_cap:
            del per_bucket[i + 1:]
            break
    if pooled >= n_nodes:
        return _pick(cluster, np.concatenate(per_bucket), n_nodes, beta,
                     locality)
    return None
