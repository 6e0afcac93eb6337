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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class _Trial:
    program_name: str
    procs: int
    scale: int


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
        self._trials: Dict[int, _Trial] = {}

    # -- profile source ------------------------------------------------------

    def _get_profile(self, job: Job):
        return self.store.profile(job.program, job.procs)

    def _feasibility_version(self):
        # A begin/abort/record on the store can flip a pending job's
        # branch in _try_place without any cluster release, so
        # demand-cache entries must not outlive it — and neither must
        # they outlive a profile-store outage transition.
        return (self.store.version, self._fault_epoch)

    # -- placement -------------------------------------------------------------

    def _try_place(
        self, cluster: ClusterState, job: Job, now: float
    ) -> Optional[Decision]:
        if not self.profile_store_up:
            # Store outage: no recording, no exploration — every job
            # runs at the CE-style safe default until the store is back.
            return self._place_exclusive(cluster, job, scale=1,
                                         meta={"degraded": True})
        if self.store.exploration_complete(job.program, job.procs):
            return super()._try_place(cluster, job, now)
        scale = self.store.next_trial_scale(job.program, job.procs)
        if scale is None:
            # A trial is in flight: run this instance at the CE-style
            # default without recording.
            return self._place_exclusive(cluster, job, scale=1,
                                         meta={"degraded": True})
        decision = self._place_exclusive(cluster, job, scale,
                                         meta={"trial": True})
        if decision is not None:
            self.store.begin_trial(job.program, job.procs, scale)
            self._trials[job.job_id] = _Trial(
                job.program.name, job.procs, scale
            )
        return decision

    # -- completion / eviction hooks -------------------------------------------

    def on_job_finish(self, job: Job, now: float) -> None:
        """Called by the runtime when a job completes; folds finished
        trial runs into the profile store."""
        trial = self._trials.pop(job.job_id, None)
        if trial is None:
            return
        observed = job.run_time / job.work_multiplier
        try:
            self.store.record_trial(
                job.program, job.procs, trial.scale, observed
            )
        except ProfileError:
            self.store.abort_trial(job.program, job.procs)
            raise

    def on_job_evict(self, job: Job, now: float) -> None:
        """A node failure killed this run: if it was an exploration
        trial, abort it so the ladder does not wait forever on a run
        that will never report."""
        trial = self._trials.pop(job.job_id, None)
        if trial is not None:
            self.store.abort_trial(job.program, job.procs)
