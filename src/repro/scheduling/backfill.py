"""Compact-n-Exclusive with EASY backfilling (extra baseline).

The paper compares SNS against plain CE and CS; production CE schedulers
usually add *backfilling*, so this baseline quantifies how much of SNS's
gain a smarter queue alone could recover.  EASY (aggressive) backfilling:
when the head job cannot start, it receives a reservation at the
earliest time enough nodes drain; queued jobs behind it may jump ahead
only if they fit on currently idle nodes and either finish before the
reservation or use nodes the reservation does not need.

Under exclusive execution, run times are deterministic (the CE reference
time), so reservations are exact in the simulator.  The policy tracks
its own running set through placement decisions and the runtime's
``on_job_finish`` hook — no scheduler/runtime API extensions needed.

Each start is CE's proposal, installed by the scheduler's one commit
(``BaseScheduler._commit``).  The queue walk is this policy's own: its
aging differs from the base loop's (no age-limit block, and a job that
can never run here is skipped without aging).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.perfmodel.execution import reference_time
from repro.scheduling.ce import CompactExclusiveScheduler
from repro.sim.cluster import ClusterState
from repro.sim.job import Job, PendingQueue
from repro.sim.runtime import Decision


@dataclass
class _Running:
    n_nodes: int
    finish_estimate: float


class CompactExclusiveBackfillScheduler(CompactExclusiveScheduler):
    """CE + EASY backfilling."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._running: Dict[int, _Running] = {}
        # A job's footprint depends only on (program, procs) and is
        # queried several times per scheduling point; memoize it.
        self._footprints: Dict[Tuple[int, int], Tuple[object, Optional[int]]] = {}

    # -- bookkeeping -------------------------------------------------------

    def _predicted_runtime(self, job: Job) -> float:
        return reference_time(
            job.program, job.procs, self.cluster_spec.node
        ) * job.work_multiplier

    def on_job_finish(self, job: Job, now: float) -> None:
        self._running.pop(job.job_id, None)

    def on_job_evict(self, job: Job, now: float) -> None:
        # An evicted job is no longer running: drop its reservation
        # input so backfill never waits on a run that was killed.
        self._running.pop(job.job_id, None)

    # -- placement helpers -----------------------------------------------------

    def _footprint(self, job: Job) -> Optional[int]:
        key = (id(job.program), job.procs)
        hit = self._footprints.get(key)
        if hit is not None and hit[0] is job.program:
            return hit[1]
        n = self._base_nodes(job)
        value = n if self._valid_footprint(job, n) else None
        self._footprints[key] = (job.program, value)
        return value

    def _start(self, cluster: ClusterState, job: Job, now: float,
               n_nodes: int) -> Decision:
        """Commit CE's proposal for a job whose ``n_nodes`` footprint
        the walk has seen fit on the idle nodes."""
        decision = self._commit(cluster, self.propose(cluster, job, now))
        self._running[job.job_id] = _Running(
            n_nodes=n_nodes, finish_estimate=now + self._predicted_runtime(job)
        )
        return decision

    def _reservation(
        self, idle_now: int, n_head: int, now: float
    ) -> Tuple[float, int]:
        """Earliest time ``n_head`` nodes are free, plus the number of
        *extra* free nodes at that time (the backfill shadow)."""
        if idle_now >= n_head:
            return now, idle_now - n_head
        available = idle_now
        for run in sorted(self._running.values(),
                          key=lambda r: r.finish_estimate):
            available += run.n_nodes
            if available >= n_head:
                return run.finish_estimate, available - n_head
        # Head job can never start (bigger than the cluster): callers
        # skip it; report an unreachable reservation.
        return float("inf"), 0

    # -- scheduling ------------------------------------------------------------

    def schedule_point(
        self, cluster: ClusterState, pending: PendingQueue, now: float
    ) -> List[Decision]:
        queue = pending.head(self.config.max_queue_scan)
        decisions: List[Decision] = []

        # Start jobs in priority order while they fit.
        index = 0
        while index < len(queue):
            job = queue[index]
            n = self._footprint(job)
            if n is None:
                index += 1  # permanently unschedulable here; skip over
                continue
            if n <= cluster.idle_count():
                decisions.append(self._start(cluster, job, now, n))
                index += 1
            else:
                break

        head_tail = [
            j for j in queue[index:] if self._footprint(j) is not None
        ]
        if not head_tail:
            return decisions

        # Head blocked: reserve for it, then backfill behind it.
        head = head_tail[0]
        n_head = self._footprint(head)
        assert n_head is not None
        idle_now = cluster.idle_count()
        t_res, extra = self._reservation(idle_now, n_head, now)
        passed_over = [head]

        for job in head_tail[1:]:
            n = self._footprint(job)
            assert n is not None
            idle_now = cluster.idle_count()
            if n > idle_now:
                passed_over.append(job)
                continue
            runtime = self._predicted_runtime(job)
            fits_before_reservation = now + runtime <= t_res + 1e-9
            if fits_before_reservation or n <= extra:
                decisions.append(self._start(cluster, job, now, n))
                if not fits_before_reservation:
                    extra -= n  # consumes shadow nodes past the reservation
            else:
                passed_over.append(job)
        pending.age(passed_over)
        return decisions
