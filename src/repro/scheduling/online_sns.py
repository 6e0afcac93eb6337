"""SNS with piggybacked online profiling (paper Sections 4.1-4.2, 4.4).

Until a program's trial ladder is complete, its jobs run **exclusively**
at the next unexplored scale factor — exclusive runs keep the profile
interference-free (Section 4.1) — and the run's time and sampled LLC
curves are folded into the store on completion.  Once exploration
saturates, jobs of that program are scheduled exactly like the offline
SNS policy, using the accumulated profile.

If a trial for the same (program, procs) is already in flight, further
instances run exclusively at scale 1 (the CE execution model — the safe
default for an unknown program) without recording.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import SchedulerConfig
from repro.errors import ProfileError
from repro.hardware.topology import ClusterSpec
from repro.profiling.database import ProfileDatabase
from repro.profiling.online import OnlineProfileStore
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.cluster import ClusterState
from repro.sim.job import Job
from repro.sim.runtime import Decision


class OnlineSpreadNShareScheduler(SpreadNShareScheduler):
    """SNS whose profile database is built from production runs."""

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        config: SchedulerConfig = SchedulerConfig(),
        *,
        database: Optional[ProfileDatabase] = None,
        store: Optional[OnlineProfileStore] = None,
    ) -> None:
        super().__init__(cluster_spec, config, database=database)
        self.store = store if store is not None else OnlineProfileStore(
            spec=cluster_spec.node,
            max_cluster_nodes=cluster_spec.num_nodes,
            candidate_scales=config.candidate_scales,
        )
        #: Scale factor of each running exploration trial, by job id.
        self._trials: Dict[int, int] = {}

    # -- profile source ------------------------------------------------------

    def _get_profile(self, job: Job):
        return self.store.profile(job.program, job.procs)

    def _feasibility_version(self):
        # A begin/abort/record on the store can flip a pending job's
        # branch in propose without any cluster release, so
        # demand-cache entries must not outlive it — and neither must
        # they outlive a profile-store outage transition.
        return (self.store.version, self._fault_epoch)

    # -- placement -------------------------------------------------------------

    def propose(
        self, cluster: ClusterState, job: Job, now: float
    ) -> Optional[Decision]:
        # Trials and the CE-style default run exclusively, booking the
        # whole memory bandwidth so nothing co-locates (Section 4.1).
        peak = self.cluster_spec.node.peak_bw
        if not self.profile_store_up:
            # Store outage: no recording, no exploration — every job
            # runs at the CE-style safe default until the store is back.
            return self._propose_exclusive(cluster, job, 1, peak,
                                           {"degraded": True})
        if self.store.exploration_complete(job.program, job.procs):
            return super().propose(cluster, job, now)
        scale = self.store.next_trial_scale(job.program, job.procs)
        if scale is None:
            # A trial is in flight: run this instance at the CE-style
            # default without recording.
            return self._propose_exclusive(cluster, job, 1, peak,
                                           {"degraded": True})
        # The scheduler commits a proposal at once, so the trial
        # begins here.
        decision = self._propose_exclusive(cluster, job, scale, peak,
                                           {"trial": True})
        if decision is not None:
            self.store.begin_trial(job.program, job.procs, scale)
            self._trials[job.job_id] = scale
        return decision

    # -- completion / eviction hooks -------------------------------------------

    def on_job_finish(self, job: Job, now: float) -> None:
        """Called by the runtime when a job completes; folds finished
        trial runs into the profile store."""
        scale = self._trials.pop(job.job_id, None)
        if scale is None:
            return
        observed = job.run_time / job.work_multiplier
        try:
            self.store.record_trial(
                job.program, job.procs, scale, observed
            )
        except ProfileError:
            self.store.abort_trial(job.program, job.procs)
            raise

    def on_job_evict(self, job: Job, now: float) -> None:
        """A node failure killed this run: if it was an exploration
        trial, abort it so the ladder does not wait forever on a run
        that will never report."""
        if self._trials.pop(job.job_id, None) is not None:
            self.store.abort_trial(job.program, job.procs)
