"""Common scheduler skeleton: the age-based priority queue.

At every scheduling point the head of the runtime's
:class:`~repro.sim.job.PendingQueue` is scanned in priority order — jobs
that have been passed over more often rank higher (aging), ties break by
submission order.  A job that has reached the configurable age limit
blocks the queue: nothing behind it is scheduled until it fits, which
prevents starvation of resource-demanding jobs (Section 4.4).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

import numpy as np

from repro.config import SchedulerConfig
from repro.errors import SchedulingError
from repro.hardware.topology import ClusterSpec
from repro.profiling.database import ProfileDatabase
from repro.sim.cluster import ClusterState
from repro.sim.job import Job, PendingQueue, Placement
from repro.sim.runtime import Decision


class BaseScheduler(abc.ABC):
    """Shared queue mechanics; policies implement :meth:`_try_place`.

    Every policy constructs through the same signature —
    ``(cluster_spec, config, *, database=None)`` — so harnesses can
    instantiate any registry entry identically.  Policies that do not
    consult profiles (CE, CS) simply ignore the database.
    """

    #: Whether nodes run CAT-partitioned (overridden by SNS).
    partitioned: bool = False

    def __init__(self, cluster_spec: ClusterSpec,
                 config: SchedulerConfig = SchedulerConfig(), *,
                 database: Optional[ProfileDatabase] = None) -> None:
        self.cluster_spec = cluster_spec
        self.config = config
        self.database = database
        # Node-model knobs the runtime forwards to ClusterState; only
        # meaningful for partitioned (SNS-family) policies.
        self.enforce_bw = config.enforce_bw and self.partitioned
        self.share_residual = config.share_residual
        # Fault-injection state (DESIGN.md §8): whether the profile
        # store is reachable, and a counter bumped on every transition
        # so demand-cache entries recorded under the other availability
        # state are never honored.
        self.profile_store_up = True
        self._fault_epoch = 0
        #: Queue instrumentation, surfaced on SimulationResult.
        self.counters: Dict[str, int] = {
            "try_place_calls": 0,
            "demand_cache_hits": 0,
        }

    def _feasibility_version(self):
        """Version of policy-internal state that can change a pending
        job's placement candidates without any cluster release (the
        online profile store, profile-store outages).  The SNS demand
        cache keys on it."""
        return self._fault_epoch

    # -- runtime hooks (SchedulerPolicy protocol) -------------------------------

    def on_job_finish(self, job: Job, now: float) -> None:
        """Called by the runtime when a job completes; policies with
        per-run state (backfill reservations, online profiling trials)
        override this."""

    def on_job_evict(self, job: Job, now: float) -> None:
        """Called by the runtime when a node failure evicts a running
        job, after its slices were removed but before it requeues."""

    def set_profile_store_available(self, up: bool) -> None:
        """Fault-plan hook: toggle profile-store reachability.  Bumps
        the feasibility version so stale demand records die; only
        the SNS family changes placement behavior in response."""
        if up != self.profile_store_up:
            self.profile_store_up = up
            self._fault_epoch += 1

    # -- queue mechanics ------------------------------------------------------

    def schedule_point(
        self, cluster: ClusterState, pending: PendingQueue, now: float
    ) -> List[Decision]:
        # A single pass in priority order suffices: placements within a
        # point only consume resources, so a job that failed to fit
        # cannot become feasible later in the same point.  Only the head
        # is examined, like the bounded queue depth of production schedulers.
        queue = pending.head(self.config.max_queue_scan)
        decisions: List[Decision] = []
        skipped: List[Job] = []
        for job in queue:
            self.counters["try_place_calls"] += 1
            decision = self._try_place(cluster, job, now)
            if decision is not None:
                decisions.append(decision)
                continue
            skipped.append(job)
            if job.times_passed_over >= self.config.age_limit:
                # Aged job blocks the queue (anti-starvation): nothing
                # behind it is scheduled until it fits.
                break
        pending.age(skipped)
        return decisions

    # -- shared placement helpers -----------------------------------------------

    def _install(
        self,
        cluster: ClusterState,
        job: Job,
        nodes: np.ndarray,
        procs: np.ndarray,
        ways: int,
        bw_per_node: float,
        scale_factor: int,
        net_per_node: float = 0.0,
        meta: Optional[Dict] = None,
    ) -> Decision:
        """Install the job's slices (``procs[i]`` processes on node
        ``nodes[i]``) and wrap the result as a :class:`Decision`.
        ``meta`` carries decision context for the tracer (candidate-set
        size, degraded/trial flags) and is never read by placement
        logic."""
        # Batched install: one fancy-indexed write per capacity
        # column.  place_slices validates before mutating, so a failed
        # placement leaves the cluster untouched — no rollback loop
        # needed here.
        cluster.place_slices(
            nodes, job.job_id, job.program, procs,
            ways, bw_per_node, len(nodes), net=net_per_node,
        )
        placement = Placement(nodes, procs, ways, bw_per_node, net_per_node)
        return Decision(job=job, placement=placement,
                        scale_factor=scale_factor, meta=meta)

    def _base_nodes(self, job: Job) -> int:
        """CE minimum footprint of the job."""
        return self.cluster_spec.node.min_nodes_for(job.procs)

    def _valid_footprint(self, job: Job, n_nodes: int) -> bool:
        """Whether the job can run on ``n_nodes`` nodes at all."""
        if n_nodes > self.cluster_spec.num_nodes:
            return False
        if job.program.max_nodes is not None and n_nodes > job.program.max_nodes:
            return False
        if n_nodes > job.procs:
            return False
        from repro.apps.frameworks import framework_of
        from repro.errors import ConfigError
        try:
            framework_of(job.program.framework).validate_footprint(
                job.procs, n_nodes
            )
        except ConfigError:
            return False
        return True

    # -- policy hook ------------------------------------------------------------

    @abc.abstractmethod
    def _try_place(
        self, cluster: ClusterState, job: Job, now: float
    ) -> Optional[Decision]:
        """Try to place one job right now; mutate the cluster and return
        a decision on success, return ``None`` (and leave the cluster
        untouched) when the job does not fit."""

    def _sanity_check_decision(self, decision: Decision) -> None:
        if decision.placement.total_procs != decision.job.procs:
            raise SchedulingError(
                f"placement covers {decision.placement.total_procs} of "
                f"{decision.job.procs} processes"
            )
