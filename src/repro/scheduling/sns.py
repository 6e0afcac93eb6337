"""Spread-n-Share: the paper's contribution (Sections 4.3-4.4, Fig 11).

For the highest-priority job, SNS walks the profiled scale factors in
descending exclusive-run performance.  For each scale it estimates the
per-node demand (cores, LLC ways, bandwidth) from the profile curves and
the job's slowdown threshold alpha, then searches for enough nodes with
that much of *each* resource free — grouped by idle-core count first,
whole cluster second, idlest (lowest ``Co + Bo + beta*Wo``) selected.
The first scale with a feasible placement wins; the job's ways are CAT-
partitioned and its bandwidth booking is deducted from the chosen nodes.
If no scale fits, the job is delayed under the aging policy.

Degraded mode (DESIGN.md §8): when the profile store is unreachable
(fault-plan outage) or a job's profile is missing, SNS cannot estimate
demands — it falls back to CE-style *exclusive* placement at scale 1,
booking the whole LLC and memory bandwidth of fully idle nodes so the
unprofiled job can neither suffer nor inflict interference.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import SchedulerConfig
from repro.errors import ProfileError
from repro.hardware.topology import ClusterSpec
from repro.profiling.database import ProfileDatabase
from repro.scheduling.base import BaseScheduler
from repro.scheduling.demand import ResourceDemand, estimate_demands_batch
from repro.scheduling.placement import find_nodes, split_procs
from repro.sim.cluster import MAX_ENTRIES, ClusterState
from repro.sim.job import Job, Placement
from repro.sim.runtime import Decision

#: Ordered (scale factor, demand) candidates of one (program, procs,
#: alpha) triple, or None when the profile lookup failed.
_Candidates = Optional[Tuple[Tuple[int, ResourceDemand], ...]]


class SpreadNShareScheduler(BaseScheduler):
    """SNS policy: automatic scaling + resource-aware co-location."""

    partitioned = True

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        config: SchedulerConfig = SchedulerConfig(),
        *,
        database: Optional[ProfileDatabase] = None,
    ) -> None:
        super().__init__(cluster_spec, config, database=database)
        if self.database is None:
            self.database = ProfileDatabase()
        # Demand estimation is a pure function of (program, procs,
        # alpha) plus the profile behind it, yet the scheduler used to
        # re-walk the profile curves for every candidate scale of every
        # pending job at every scheduling point.  The whole ordered
        # candidate list is cached per triple; the feasibility version
        # (the online store's mutation counter) invalidates entries when
        # a recorded trial changes the profile.
        self._demand_cache: Dict[tuple, Tuple[object, _Candidates]] = {}
        # The cluster the demand cache was filled against: a policy
        # object reused against a different simulation (fresh cluster)
        # must not carry entries across.
        self._demand_cluster: Optional[ClusterState] = None

    def _get_profile(self, job: Job):
        """Profile lookup; the online variant overrides this to consult
        its piggybacked exploration store."""
        return self.database.get_or_profile(
            job.program, job.procs, self.cluster_spec.node,
            self.cluster_spec.num_nodes,
            candidate_scales=self.config.candidate_scales,
        )

    def _scale_candidates(
        self, job: Job, alpha: float, cluster: ClusterState
    ) -> _Candidates:
        """The job's ``(scale, demand)`` walk in preference order,
        footprint-filtered, memoized per (program, procs, alpha) for as
        long as the policy schedules onto ``cluster`` (one simulation)."""
        if self._demand_cluster is not cluster:
            self._demand_cache.clear()
            self._demand_cluster = cluster
        key = (
            id(job.program), job.procs, alpha, self._feasibility_version()
        )
        hit = self._demand_cache.get(key)
        if hit is not None and hit[0] is job.program:
            self.counters["demand_cache_hits"] += 1
            return hit[1]
        value = self._compute_candidates(job, alpha)
        if len(self._demand_cache) >= MAX_ENTRIES:
            self._demand_cache.clear()
        self._demand_cache[key] = (job.program, value)
        return value

    def _compute_candidates(self, job: Job, alpha: float) -> _Candidates:
        spec = self.cluster_spec.node
        try:
            profile = self._get_profile(job)
        except ProfileError:
            return None
        scales = list(
            profile.preferred_scale_order(self.config.scale_tolerance)
        )
        entries = []
        for k in scales:
            scale_profile = profile.get(k)
            net_fraction = 0.0
            if self.config.manage_network:
                net_fraction = job.program.comm.network_fraction(
                    scale_profile.n_nodes
                )
            entries.append((scale_profile, net_fraction))
        # One demand per candidate scale (``estimate_demand`` each).
        demands = estimate_demands_batch(
            entries, job.procs, alpha, spec, counters=self.counters,
        )
        return tuple(
            (k, demand)
            for k, demand in zip(scales, demands)
            if self._valid_footprint(job, demand.n_nodes)
        )

    def propose(
        self, cluster: ClusterState, job: Job, now: float
    ) -> Optional[Decision]:
        spec = self.cluster_spec.node
        if not self.profile_store_up:
            # Profile store down (fault-plan outage): no demand
            # estimates exist — degrade to exclusive placement.
            return self._propose_exclusive(cluster, job, 1, spec.peak_bw,
                                           {"degraded": True})
        alpha = job.alpha if job.alpha is not None else self.config.default_alpha
        candidates = self._scale_candidates(job, alpha, cluster)
        if candidates is None:
            # Profile lookup failed outright: degrade rather than
            # starve the job behind an error it cannot outwait.
            return self._propose_exclusive(cluster, job, 1, spec.peak_bw,
                                           {"degraded": True})
        if not candidates:
            return None

        # Bandwidth headroom: booking beyond `headroom * peak` is refused.
        slack = (1.0 - self.config.bw_headroom) * spec.peak_bw

        for k, demand in candidates:
            chosen = find_nodes(
                cluster,
                demand.n_nodes,
                demand.cores_per_node,
                demand.ways,
                demand.bw_per_node + slack,
                beta=self.config.beta,
                net=demand.net_per_node,
                locality=self.config.locality_aware,
            )
            if chosen is None:
                continue
            placement = Placement(
                chosen, split_procs(job.procs, chosen), demand.ways,
                demand.bw_per_node, demand.net_per_node,
            )
            return Decision(job, placement, k,
                            {"candidates": len(candidates)})
        return None
