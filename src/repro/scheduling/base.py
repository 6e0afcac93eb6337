"""Common scheduler skeleton: the age-based priority queue.

At every scheduling point the head of the runtime's
:class:`~repro.sim.job.PendingQueue` is scanned in priority order — jobs
that have been passed over more often rank higher (aging), ties break by
submission order.  A job that has reached the configurable age limit
blocks the queue: nothing behind it is scheduled until it fits, which
prevents starvation of resource-demanding jobs (Section 4.4).

Policies propose, the scheduler commits: a policy's :meth:`propose`
reads the cluster and returns an uncommitted :class:`Decision`, and
:meth:`BaseScheduler._commit` — the one place a policy's choice reaches
:meth:`ClusterState.place_slices` — installs it before the next job is
proposed, so placements still consume resources within a point.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.config import SchedulerConfig
from repro.errors import SchedulingError
from repro.hardware.topology import ClusterSpec
from repro.profiling.database import ProfileDatabase
from repro.sim.cluster import ClusterState
from repro.scheduling.placement import split_procs
from repro.sim.job import Job, PendingQueue, Placement
from repro.sim.runtime import Decision


class BaseScheduler(abc.ABC):
    """Shared queue mechanics; policies implement :meth:`propose`.

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
        #: Queue and demand-kernel instrumentation, surfaced on
        #: SimulationResult (``vec_curve_evals``: curve queries of
        #: demand estimation, zero for policies that estimate none).
        self.counters: Dict[str, int] = {
            "try_place_calls": 0,
            "demand_cache_hits": 0,
            "vec_curve_evals": 0,
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
            proposal = self.propose(cluster, job, now)
            if proposal is not None:
                decisions.append(self._commit(cluster, proposal))
                continue
            skipped.append(job)
            if job.times_passed_over >= self.config.age_limit:
                # Aged job blocks the queue (anti-starvation): nothing
                # behind it is scheduled until it fits.
                break
        pending.age(skipped)
        return decisions

    # -- the commit and shared proposals ------------------------------------

    def _commit(self, cluster: ClusterState, decision: Decision) -> Decision:
        """Install a proposed decision on the cluster and return it
        committed, carrying ``place_slices``' co-runner set.
        ``place_slices`` validates before mutating, so a refused
        placement leaves the cluster untouched."""
        job = decision.job
        placement = decision.placement
        if placement.total_procs != job.procs:
            raise SchedulingError(
                f"placement covers {placement.total_procs} of "
                f"{job.procs} processes"
            )
        corunners = cluster.place_slices(
            placement.nodes, job.job_id, job.program, placement.procs,
            placement.dedicated_ways, placement.booked_bw,
            placement.n_nodes, net=placement.booked_net,
        )
        return Decision(job, placement, decision.scale_factor,
                        decision.meta, corunners)

    def _propose_exclusive(
        self, cluster: ClusterState, job: Job, scale: int, bw: float,
        meta: Optional[Dict] = None,
    ) -> Optional[Decision]:
        """Whole idle nodes, ``scale`` times the CE footprint, with the
        whole LLC and ``bw`` GB/s booked per node; ``None`` when the
        footprint is invalid or too few nodes are idle.  ``meta`` is
        decision context for the tracer (degraded / trial flags) and is
        never read by placement logic."""
        n_nodes = scale * self._base_nodes(job)
        if not self._valid_footprint(job, n_nodes):
            return None
        if cluster.idle_count() < n_nodes:
            return None
        chosen = cluster.first_idle(n_nodes)
        placement = Placement(chosen, split_procs(job.procs, chosen),
                              cluster.spec.node.llc_ways, bw)
        return Decision(job, placement, scale, meta)

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
    def propose(
        self, cluster: ClusterState, job: Job, now: float
    ) -> Optional[Decision]:
        """Where one job would run right now, as an uncommitted
        decision, or ``None`` when it does not fit.  Reads the cluster
        and never mutates it."""
