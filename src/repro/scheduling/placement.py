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

import heapq
from itertools import islice
from typing import Collection, Dict, List, Optional, Sequence

from repro.errors import SchedulingError, SimulationError
from repro.sim.cluster import ClusterState


def split_procs(procs: int, node_ids: Sequence[int]) -> Dict[int, int]:
    """Divide ``procs`` processes across nodes as evenly as possible
    (the paper's load-balanced split: 32 processes on 2 nodes -> 16+16)."""
    n = len(node_ids)
    if n < 1:
        raise SchedulingError("cannot split across zero nodes")
    if procs < n:
        raise SchedulingError(f"cannot split {procs} processes onto {n} nodes")
    base, extra = divmod(procs, n)
    if not extra:
        return dict.fromkeys(node_ids, base)
    return dict(zip(node_ids, [base + 1] * extra + [base] * (n - extra)))


def find_nodes(
    cluster: ClusterState,
    n_nodes: int,
    cores: int,
    ways: int,
    bw: float,
    beta: float,
    net: float = 0.0,
    locality: bool = False,
) -> Optional[List[int]]:
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
    keyed on the demand alone.  With no active fabric it is inert.
    """
    if n_nodes < 1 or cores < 1:
        raise SchedulingError("n_nodes and cores must be >= 1")

    # Negative search cache: failure here means fewer than n_nodes
    # cluster-wide can host the demand, which placements (pure
    # consumption) cannot undo — so a failed demand tuple keeps failing
    # until the next slice *removal*.  Congested replays retry
    # near-identical demands (same program + process count) across many
    # queued jobs, so a hit skips even the count below.
    failed = None
    if cluster.ctx.enabled:
        epoch = cluster.release_epoch
        cache_epoch, failed = cluster.find_fail
        if cache_epoch != epoch:
            failed = set()
            cluster.find_fail = (epoch, failed)
        key = (n_nodes, cores, ways, bw, net, beta)
        if key in failed:
            cluster.counters["find_fail_hits"] += 1
            return None

    def fail() -> None:
        if failed is not None:
            failed.add(key)

    # Fast fail on congested clusters: the core dimension alone rules the
    # request out without touching any node.
    if cluster.count_with_free_cores(cores) < n_nodes:
        fail()
        return None

    # The walk's first bucket, answered without counting: small jobs on
    # a cluster with idle capacity end here.
    idle = _idle_hosts(cluster, cores, ways, bw, net)
    if len(idle) >= n_nodes:
        return _pick(cluster, idle, n_nodes, beta, locality, idle=True)

    # Exact precheck: the walk succeeds iff at least n_nodes up nodes
    # qualify.  When cores are the only dimension tested, the core
    # count above already was that count.
    if (cluster.partitioned or bw > 0.0 or net > 0.0) \
            and cluster.count_hosts(cores, ways, bw, net) < n_nodes:
        fail()
        return None

    chosen = _walk(cluster, n_nodes, cores, ways, bw, beta, net, locality)
    if chosen is None:
        raise SimulationError(
            f"count/walk contract broken: count_hosts admitted {n_nodes}"
            f" x {cores}-core slices the bucket walk could not place")
    return chosen


def _idle_hosts(cluster: ClusterState, cores: int, ways: int, bw: float,
                net: float) -> Collection[int]:
    """The fully idle bucket when its members can host the slice, else
    empty.  Idle nodes are interchangeable (identical state, metric 0),
    so one representative's ``can_host`` decides for all of them
    instead of a scan of thousands on large clusters.  That test has no
    ToR headroom term (DESIGN.md §11)."""
    ids = cluster.free_core_buckets().get(cluster.spec.node.cores, ())
    if ids and cluster.node(next(iter(ids))).can_host(cores, ways, bw, net):
        return ids
    return ()


def _pick(cluster: ClusterState, ids: Collection[int], n_nodes: int,
          beta: float, locality: bool, idle: bool = False) -> List[int]:
    """The ``n_nodes`` idlest of the qualifying ``ids``.  Idle nodes all
    have metric 0, so without locality they are taken in bucket order;
    under locality their racks differ and they are picked rack-aware."""
    if len(ids) <= n_nodes:
        return list(ids)
    if locality:
        # Same columnar selection in both cache modes: locality changes
        # placement decisions, and decisions must stay cache-mode
        # independent (the golden-trace contract).
        return cluster.pick_idlest(list(ids), n_nodes, beta,
                                   rack_aware=True)
    if idle:
        return list(islice(ids, n_nodes))
    if cluster.ctx.enabled:
        return cluster.pick_idlest(ids, n_nodes, beta)
    nodes = cluster.nodes
    return heapq.nsmallest(
        n_nodes, ids, key=lambda nid: (nodes[nid].occupancy_metric(beta), nid))


def _walk(cluster: ClusterState, n_nodes: int, cores: int, ways: int,
          bw: float, beta: float, net: float = 0.0,
          locality: bool = False) -> Optional[List[int]]:
    """The two-pass bucket search of paper §4.4, with no precheck.

    Idlest groups first: selecting the emptiest compatible group keeps
    per-group consumption even and preserves fuller groups for compact
    jobs.
    """
    # Bound per-call work on huge clusters: scanning a few hundred
    # candidates is enough to pick well-placed nodes; exhaustive scans of
    # tens of thousands of part-full nodes would dominate runtime.
    scan_cap = max(256, 4 * n_nodes)
    total_cores = cluster.spec.node.cores
    buckets = cluster.free_core_buckets()
    per_bucket: List[Collection[int]] = []
    for free in sorted((f for f in buckets if f >= cores), reverse=True):
        if free == total_cores:
            hosts = _idle_hosts(cluster, cores, ways, bw, net)
        else:
            hosts = cluster.scan_hosts(buckets[free], cores, ways, bw, net,
                                       scan_cap, bucket=free)
        if len(hosts) >= n_nodes:
            return _pick(cluster, hosts, n_nodes, beta, locality,
                         idle=free == total_cores)
        per_bucket.append(hosts)
    # No single group suffices: search the whole cluster, reusing the
    # first pass's lists (nothing changed in between).  The idle group,
    # if any, was necessarily smaller than n_nodes, so this pool stays
    # small.
    whole: List[int] = []
    for hosts in per_bucket:
        whole.extend(hosts)
        if len(whole) >= scan_cap:
            break
    if len(whole) >= n_nodes:
        return _pick(cluster, whole, n_nodes, beta, locality)
    return None
