"""Job objects, their lifecycle records, and the pending queue."""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.program import ProgramSpec
from repro.errors import SimulationError


class JobState(enum.Enum):
    """Lifecycle of a batch job.  ``FAILED`` is terminal: a job whose
    node crashed and whose retry budget is exhausted."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass(eq=False)
class Placement:
    """Where and how a job runs: two aligned int64 arrays — node ids and
    per-node process counts — plus the dedicated LLC ways (the same on
    every node, as in the paper) and per-node bookings."""

    nodes: np.ndarray
    procs: np.ndarray
    dedicated_ways: int
    booked_bw: float  # GB/s booked per node
    booked_net: float = 0.0  # link-utilization fraction booked per node by the scheduler

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.procs = np.asarray(self.procs, dtype=np.int64)
        if not len(self.nodes):
            raise SimulationError("placement must cover at least one node")
        if self.procs.shape != self.nodes.shape:
            raise SimulationError("placement nodes and proc map disagree")
        if int(self.procs.min()) <= 0:
            raise SimulationError("per-node process counts must be positive")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return np.array_equal(self.nodes, other.nodes) \
            and np.array_equal(self.procs, other.procs) \
            and (self.dedicated_ways, self.booked_bw, self.booked_net) \
            == (other.dedicated_ways, other.booked_bw, other.booked_net)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """The node ids as a tuple of ints (derived, read-only)."""
        return tuple(self.nodes.tolist())

    @property
    def procs_per_node(self) -> Dict[int, int]:
        """Node id -> process count (derived, read-only)."""
        return dict(zip(self.nodes.tolist(), self.procs.tolist()))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_procs(self) -> int:
        return int(self.procs.sum())


@dataclass
class Job:
    """One application instance submitted to the cluster.

    Progress accounting: ``remaining_work`` is measured in *reference
    seconds* — seconds of execution under the CE solo baseline.  A job
    running at speed ``s`` (relative to that baseline) consumes
    ``s * dt`` units of work in ``dt`` seconds of simulated time.
    """

    job_id: int
    program: ProgramSpec
    procs: int
    submit_time: float = 0.0
    alpha: Optional[float] = None  # None -> scheduler default
    #: Scales the job's total work relative to the program's calibrated
    #: input size; used by trace replay to impose trace-given CE runtimes
    #: (a multiplier m makes the job m x longer under any conditions).
    work_multiplier: float = 1.0

    state: JobState = field(default=JobState.PENDING, init=False)
    start_time: Optional[float] = field(default=None, init=False)
    finish_time: Optional[float] = field(default=None, init=False)
    placement: Optional[Placement] = field(default=None, init=False)
    scale_factor: int = field(default=1, init=False)

    # progress integration; while the job runs under a SchedulerCore,
    # its running-job table row holds the last three (written back when
    # the job finishes or is evicted)
    total_work: float = field(default=0.0, init=False)
    remaining_work: float = field(default=0.0, init=False)
    speed: float = field(default=0.0, init=False)
    last_progress_update: float = field(default=0.0, init=False)

    # queue aging (Section 4.4)
    times_passed_over: int = field(default=0, init=False)

    # fault accounting (DESIGN.md §8): attempts lost to node failures.
    retries: int = field(default=0, init=False)
    #: Wall node-seconds consumed by evicted attempts (badput).
    lost_node_seconds: float = field(default=0.0, init=False)
    #: Reference-seconds of work completed by evicted attempts.
    lost_work: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.procs <= 0:
            raise SimulationError("job must have at least one process")
        if self.submit_time < 0:
            raise SimulationError("submit time must be non-negative")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise SimulationError("alpha must be in (0, 1]")
        if self.work_multiplier <= 0:
            raise SimulationError("work multiplier must be positive")

    # -- progress ----------------------------------------------------------

    def begin(self, now: float, total_work: float, placement: Placement,
              scale_factor: int) -> None:
        if self.state is not JobState.PENDING:
            raise SimulationError(f"job {self.job_id} started twice")
        if total_work <= 0:
            raise SimulationError("total work must be positive")
        self.state = JobState.RUNNING
        self.start_time = now
        self.total_work = total_work
        self.remaining_work = total_work
        self.last_progress_update = now
        self.placement = placement
        self.scale_factor = scale_factor

    def settle_progress(self, now: float) -> None:
        """Integrate progress at the current speed up to ``now``."""
        if self.state is not JobState.RUNNING:
            raise SimulationError(f"job {self.job_id} is not running")
        dt = now - self.last_progress_update
        if dt < -1e-9:
            raise SimulationError("time went backwards")
        self.remaining_work = max(0.0, self.remaining_work - self.speed * dt)
        self.last_progress_update = now

    def set_speed(self, speed: float) -> None:
        if speed <= 0:
            raise SimulationError(
                f"job {self.job_id} computed non-positive speed {speed}"
            )
        self.speed = speed

    def projected_finish(self) -> float:
        """Absolute finish time if conditions stay as they are."""
        if self.state is not JobState.RUNNING:
            raise SimulationError(f"job {self.job_id} is not running")
        return self.last_progress_update + self.remaining_work / self.speed

    def complete(self, now: float) -> None:
        if self.state is not JobState.RUNNING:
            raise SimulationError(f"job {self.job_id} is not running")
        self.state = JobState.FINISHED
        self.finish_time = now
        self.remaining_work = 0.0

    def evict(self, now: float) -> None:
        """A node failure killed this run: charge the attempt's consumed
        node-seconds and completed work to the loss counters and return
        the job to ``PENDING`` so it can be resubmitted from scratch
        (batch jobs restart; there is no checkpointing in the model)."""
        if self.state is not JobState.RUNNING:
            raise SimulationError(f"job {self.job_id} is not running")
        assert self.placement is not None and self.start_time is not None
        self.lost_node_seconds += (now - self.start_time) * self.placement.n_nodes
        self.lost_work += self.total_work - self.remaining_work
        self.retries += 1
        self.state = JobState.PENDING
        self.start_time = None
        self.placement = None
        self.scale_factor = 1
        self.total_work = 0.0
        self.remaining_work = 0.0
        self.speed = 0.0
        self.last_progress_update = now

    def mark_failed(self, now: float) -> None:
        """Terminal failure: retry budget exhausted after an eviction."""
        if self.state is not JobState.PENDING:
            raise SimulationError(f"job {self.job_id} is not pending")
        self.state = JobState.FAILED
        self.finish_time = now

    # -- reporting -----------------------------------------------------------

    @property
    def wait_time(self) -> float:
        """Submit-to-start time."""
        if self.start_time is None:
            raise SimulationError(f"job {self.job_id} never started")
        return self.start_time - self.submit_time

    @property
    def run_time(self) -> float:
        """Start-to-finish time."""
        if self.finish_time is None or self.start_time is None:
            raise SimulationError(f"job {self.job_id} never finished")
        return self.finish_time - self.start_time

    @property
    def turnaround_time(self) -> float:
        """Submit-to-finish time."""
        if self.finish_time is None:
            raise SimulationError(f"job {self.job_id} never finished")
        return self.finish_time - self.submit_time


def priority_key(job: Job) -> Tuple[int, float, int]:
    """Queue priority (Section 4.4): aged jobs first, then FIFO by
    submission, then id.  Ids are unique, so keys never tie."""
    return (-job.times_passed_over, job.submit_time, job.job_id)


class PendingQueue:
    """The pending jobs, kept sorted by :func:`priority_key`.

    A scheduling point reads the queue's head instead of ranking every
    pending job: ``head(k)`` is exactly ``heapq.nsmallest(k, jobs,
    key=priority_key)``.  The key only changes through :meth:`age`,
    which may bump only jobs of the last :meth:`head` window.  Aging
    lowers their keys, which were already no greater than any key
    behind the window, so re-sorting the prefix up to the deepest aged
    job restores the total order.
    """

    __slots__ = ("_jobs", "_window")

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._jobs: List[Job] = sorted(jobs, key=priority_key)
        #: Length of the last head() window (0: age() needs a new head).
        self._window = 0

    def __len__(self) -> int:
        return len(self._jobs)

    def push(self, job: Job) -> None:
        """Queue a job: arrivals land at the back, requeued jobs (old
        submit times, nonzero ages) in the middle."""
        bisect.insort(self._jobs, job, key=priority_key)
        self._window = 0

    def remove(self, job: Job) -> None:
        """Drop one job, found by identity (placed jobs sit near the
        head); raises when it is not queued."""
        jobs = self._jobs
        for pos, queued in enumerate(jobs):
            if queued is job:
                del jobs[pos]
                if pos < self._window:
                    self._window -= 1
                return
        raise SimulationError(f"job {job.job_id} is not pending")

    def head(self, limit: int) -> List[Job]:
        """The ``limit`` highest-priority jobs, in priority order."""
        head = self._jobs[:limit]
        self._window = len(head)
        return head

    def age(self, jobs: Sequence[Job]) -> None:
        """Count one more pass-over for each job (the only writer of
        ``times_passed_over``) and restore priority order."""
        queue, window = self._jobs, self._window
        deepest = pos = 0
        for job in jobs:
            # Policies hand jobs back in queue order, so one forward
            # scan usually finds them all; otherwise rescan the front.
            start = pos
            while pos < window and queue[pos] is not job:
                pos += 1
            if pos == window:
                pos = 0
                while pos < start and queue[pos] is not job:
                    pos += 1
                if pos == start:
                    raise SimulationError(
                        f"age(): job {job.job_id} is outside the last "
                        "head() window; a policy may age only the jobs "
                        "it was handed"
                    )
            if pos > deepest:
                deepest = pos
        for job in jobs:
            job.times_passed_over += 1
        if deepest:
            queue[:deepest + 1] = sorted(queue[:deepest + 1],
                                         key=priority_key)
