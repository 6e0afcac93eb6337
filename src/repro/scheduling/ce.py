"""Compact-n-Exclusive: the conventional baseline (paper Sections 1, 3.2).

Every job runs at scale factor 1 on fully idle nodes; allocated nodes are
dedicated — no other job may touch them while the job runs.  Processes
are spread evenly across the minimum footprint (a 32-process job on
28-core nodes uses 2 nodes x 16 cores, Fig 8).

Under fault injection, a down node has no live entry in the cluster's
free-core index (its arrival stamp is cleared), so ``idle_count`` /
``first_idle`` naturally see only surviving capacity — CE needs no
fault-specific logic of its own.
"""

from __future__ import annotations

from typing import Optional

from repro.scheduling.base import BaseScheduler
from repro.sim.cluster import ClusterState
from repro.sim.job import Job
from repro.sim.runtime import Decision


class CompactExclusiveScheduler(BaseScheduler):
    """CE policy: scale 1, node mode E."""

    partitioned = False

    def propose(
        self, cluster: ClusterState, job: Job, now: float
    ) -> Optional[Decision]:
        return self._propose_exclusive(cluster, job, 1, 0.0)
