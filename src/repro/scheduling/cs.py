"""Compact-n-Share: the intermediate baseline (paper Section 3.2, Fig 8).

CS relaxes CE's exclusivity — idle cores of partially used nodes are
filled with other jobs — but keeps the compact instinct: it prefers
scale factor 1 and only spreads a job further when no placement at the
current scale is available ("the lowest scale factor currently
possible").  It accounts cores only: no LLC or bandwidth awareness, no
CAT actuation.  Down nodes (fault injection) are invisible to
``find_nodes`` via the free-core index, so CS degrades to the surviving
capacity without policy-side changes.
"""

from __future__ import annotations

from typing import Optional

from repro.scheduling.base import BaseScheduler
from repro.scheduling.placement import find_nodes, split_procs
from repro.sim.cluster import ClusterState
from repro.sim.job import Job
from repro.sim.runtime import Decision


class CompactShareScheduler(BaseScheduler):
    """CS policy: lowest feasible scale, node mode S, cores-only."""

    partitioned = False

    def _try_place(
        self, cluster: ClusterState, job: Job, now: float
    ) -> Optional[Decision]:
        base = self._base_nodes(job)
        for k in self.config.candidate_scales:  # ascending: compact first
            n_nodes = k * base
            if not self._valid_footprint(job, n_nodes):
                continue
            cores = -(-job.procs // n_nodes)
            chosen = find_nodes(
                cluster, n_nodes, cores, ways=0, bw=0.0, beta=0.0,
                locality=self.config.locality_aware,
            )
            if chosen is None:
                continue
            procs = split_procs(job.procs, chosen)
            decision = self._install(
                cluster, job, chosen, procs,
                ways=cluster.spec.node.llc_ways, bw_per_node=0.0,
                scale_factor=k,
            )
            self._sanity_check_decision(decision)
            return decision
        return None
