"""Simulation runtime: event loop + piecewise progress integration.

The runtime owns the cluster state, the pending queue, and the event
queue.  At every *scheduling point* (simulation start, job submission,
job completion — Section 3.1) it hands the cluster and the pending queue
to the scheduling policy, applies the returned placement decisions, and
then re-integrates the progress of every job whose node conditions
changed:

1. apply the placement / removal, collecting the jobs that share a
   touched node;
2. re-solve bandwidth arbitration on every node any affected job touches;
3. settle each affected job's progress at its old speed up to *now*,
   then recompute speeds and re-schedule finish events (lazy
   cancellation).  Speeds change only here, once per event, so settling
   at the refresh is exact.

Because conditions are piecewise-constant between events, the integration
is exact — no time-stepping error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Set

import numpy as np

from repro.config import RetryPolicy, SchedulerConfig, SimConfig
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.context import PerfContext
from repro.perfmodel.execution import NodeConditions, job_time, reference_time
from repro.obs.telemetry import TelemetryRecorder
from repro.obs.trace import TraceLevel, Tracer
from repro.sim.cluster import ClusterState
from repro.sim.engine import EventKind, EventQueue
from repro.sim.job import Job, JobState, PendingQueue, Placement
from repro.sim.node import distinct
from repro.sim.running import COMPUTE, ROUTE, T_REF, RunningTable, time_parts


@dataclass(frozen=True)
class Decision:
    """One placement decision returned by a scheduling policy.

    The policy has already installed the job's slices on the cluster
    (so it can account availability while scheduling); the runtime
    starts the job and re-integrates progress.
    """

    job: Job
    placement: Placement
    scale_factor: int
    #: Optional decision context for the tracer (candidate-set size,
    #: degraded-mode / trial-placement flags); never read by the
    #: runtime's placement logic.
    meta: Optional[dict] = None


class SchedulerPolicy(Protocol):
    """What the runtime needs from a scheduling policy.

    The protocol is the complete contract: the runtime reads every
    member directly (no ``getattr`` probing), and
    :class:`repro.scheduling.base.BaseScheduler` implements all of it —
    the hook methods as no-ops — so concrete policies only override
    what they care about.
    """

    #: Whether nodes run with CAT way partitioning (SNS) or an
    #: unpartitioned shared LLC (CE / CS).
    partitioned: bool
    #: Intel-MBA-style hard bandwidth partitioning (SNS ablation knob).
    enforce_bw: bool
    #: The paper's residual-way giveaway (Section 4.4 ablation knob).
    share_residual: bool
    #: Queue instrumentation merged into ``SimulationResult.counters``.
    counters: Dict[str, int]

    def schedule_point(
        self, cluster: ClusterState, pending: PendingQueue, now: float
    ) -> List[Decision]:
        """Place as many pending jobs as the policy wants; install each
        on the cluster with :meth:`ClusterState.place_slices` (the
        built-in policies do so through ``BaseScheduler._install``) and
        return the decisions.
        ``pending`` is the runtime's :class:`PendingQueue`: read its
        ``head()``, and count pass-overs only through ``age()``."""
        ...  # pragma: no cover

    def on_job_finish(self, job: Job, now: float) -> None:
        """Completion hook: lets policies piggyback profiling on
        finished runs (paper Section 4.4) or retire reservations."""
        ...  # pragma: no cover

    def on_job_evict(self, job: Job, now: float) -> None:
        """Fault hook: a node failure evicted this running job (its
        slices are already gone; it requeues or fails afterwards)."""
        ...  # pragma: no cover

    def set_profile_store_available(self, up: bool) -> None:
        """Fault hook: profile-store outage begins (``False``) or ends
        (``True``); SNS degrades to exclusive placement while down."""
        ...  # pragma: no cover


@dataclass
class SimulationResult:
    """Everything the experiment harnesses read out of a run."""

    jobs: List[Job]
    makespan: float
    telemetry: Optional[TelemetryRecorder]
    #: Number of discrete events processed (benchmark metric).
    events: int = 0
    #: Kernel-counter instrumentation: event batches, refresh cycles,
    #: arbitration cache traffic, nodes scanned, batched-kernel counts
    #: (see DESIGN.md §7).
    counters: Dict[str, int] = field(default_factory=dict)
    #: The run's structured tracer (DESIGN.md §10); ``None`` unless the
    #: simulation was constructed with tracing enabled.
    trace: Optional[Tracer] = None
    #: ``False`` for an incremental in-flight view built by
    #: :meth:`SchedulerCore.peek_result` (jobs may still be pending or
    #: running and the makespan is only a lower bound); ``True`` for the
    #: final result of a finished run.
    complete: bool = True

    @property
    def finished_jobs(self) -> List[Job]:
        return [j for j in self.jobs if j.state is JobState.FINISHED]

    @property
    def failed_jobs(self) -> List[Job]:
        """Jobs that exhausted their retry budget under fault injection."""
        return [j for j in self.jobs if j.state is JobState.FAILED]

    def mean_turnaround(self) -> float:
        jobs = self.finished_jobs
        if not jobs:
            raise SimulationError("no finished jobs")
        return sum(j.turnaround_time for j in jobs) / len(jobs)

    def throughput(self) -> float:
        """The paper's throughput metric: reciprocal of the average
        submit-to-finish time (Section 6.2)."""
        return 1.0 / self.mean_turnaround()

    def node_seconds(self) -> float:
        """Total node-seconds held by all jobs."""
        return sum(
            j.run_time * j.placement.n_nodes
            for j in self.finished_jobs
            if j.placement is not None
        )

    # -- fault accounting (DESIGN.md §8) -----------------------------------

    def goodput_node_seconds(self) -> float:
        """Node-seconds spent on runs that completed (the final,
        successful attempt of each finished job)."""
        return self.node_seconds()

    def badput_node_seconds(self) -> float:
        """Node-seconds burned by attempts a node failure killed —
        work the cluster did and then threw away."""
        return sum(j.lost_node_seconds for j in self.jobs)

    def badput_fraction(self) -> float:
        """Badput as a fraction of all node-seconds consumed; 0.0 for a
        fault-free run (and for an empty one)."""
        good = self.goodput_node_seconds()
        bad = self.badput_node_seconds()
        total = good + bad
        return bad / total if total > 0 else 0.0


@dataclass(frozen=True)
class SimSnapshot:
    """O(1) point-in-time view of an in-flight run.

    Built by :meth:`SchedulerCore.snapshot` for the live service's
    ``GET /stats`` endpoint; every field reads a counter the core
    maintains incrementally, so taking a snapshot never scans the job
    table.
    """

    #: Virtual time of the last processed event.
    now: float
    #: Jobs the core knows about (batch-loaded plus streamed in).
    submitted: int
    #: Jobs that have not started yet: those in the scheduler's pending
    #: queue, those whose submit event has not been processed (a future
    #: ``submit_time``, or a streamed submit awaiting its ``step``), and
    #: evicted jobs awaiting their retry.
    pending: int
    #: Jobs currently running.
    running: int
    #: Jobs that completed successfully.
    finished: int
    #: Jobs that exhausted their retry budget (fault injection).
    failed: int
    #: Discrete events processed so far.
    events: int
    #: Virtual timestamp of the next queued live event, or ``None`` when
    #: the queue is drained.
    next_event_time: Optional[float]
    #: Mean submit-to-finish time over finished jobs so far (``None``
    #: until the first completion) — the running form of
    #: :meth:`SimulationResult.mean_turnaround`.
    mean_turnaround: Optional[float]


class SchedulerCore:
    """The scheduling engine behind both entry points: batch replay
    (:class:`Simulation`) and the live service (:mod:`repro.service`).

    The event loop comes in two equivalent shapes:

    - **batch** — construct with the full job list and call
      :meth:`run`, which is exactly ``start(); while step(): pass;
      finalize()``;
    - **streaming** — construct with ``jobs=()``, feed arrivals in with
      :meth:`submit` as they occur, and :meth:`step` one event at a
      time.  The service master steps only while
      ``next_event_time() <= watermark`` so virtual time never outruns
      the accepted submissions (wall-clock decoupling, DESIGN.md §12).

    Because the batch loop is the streaming loop run to exhaustion, a
    streamed run that receives the same jobs in the same arrival order
    is bit-identical to the batch run — the service's equivalence
    contract (tests/test_service.py).

    ``fault_plan`` injects node failures, recoveries, and profile-store
    outages (see :mod:`repro.faults`).  An empty or absent plan adds no
    events and the run is bit-identical to a fault-free simulation.
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        policy: SchedulerPolicy,
        jobs: Sequence[Job] = (),
        config: SimConfig = SimConfig(),
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        # This simulation's perf-model state, created here and injected
        # into every layer below (cluster, policies reach it through
        # ``cluster.ctx``).  Each Simulation owns a fresh context, so
        # concurrent runs in one process never share kernel caches.
        self.ctx = PerfContext(enabled=config.perf_caches)
        self.cluster = ClusterState(
            cluster_spec,
            partitioned=policy.partitioned,
            enforce_bw=policy.enforce_bw,
            share_residual=policy.share_residual,
            ctx=self.ctx,
        )
        self.policy = policy
        self.config = config
        self.jobs: Dict[int, Job] = {}
        self.pending = PendingQueue()
        self.events = EventQueue()
        # Episode telemetry is lazy (DESIGN.md §10): the recorder is
        # only built at run() start when the config asks for it, so a
        # disabled-observability run allocates no recorder at all.
        self.telemetry: Optional[TelemetryRecorder] = None
        # This run's structured tracer: injected directly (tests,
        # benches) or built from SimConfig.trace — same per-simulation
        # ownership rule as the PerfContext, no globals.  ``None`` means
        # every emission site below is a single ``is None`` check.
        if tracer is None and config.trace is not None:
            tracer = Tracer.from_config(config.trace, cluster_spec.num_nodes)
        self.tracer = tracer
        self._spec = cluster_spec.node
        # Physical leaf-spine link loads (DESIGN.md §13).  The cluster's
        # *booked* link columns answer scheduling feasibility; the perf
        # charge here is physical: every running cross-rack job loads
        # the ToR uplinks and the spine in proportion to its
        # communication fraction, whatever the policy placed it (CE/CS
        # book no network yet still congest the fabric).  ``_cross_jobs``
        # maps job_id -> (rack ids, per-rack uplink loads) arrays for
        # running jobs that span racks; the derived utilization of the
        # most loaded link on each such job's route is its table row's
        # ROUTE, rewritten by _recompute_fabric_loads whenever the cross
        # set changes.  On a flat fabric ``_fabric`` is None and the
        # dict stays empty, so every fabric branch below degenerates to
        # one cheap check and the run is bit-identical to pre-fabric
        # behavior.
        n = cluster_spec.num_nodes
        fabric = cluster_spec.fabric
        if fabric is not None and fabric.active_for(n):
            self._fabric = fabric
            self._f_rack_of = fabric.rack_map(n)
        else:
            self._fabric = None
            self._f_rack_of = None
        self._cross_jobs: Dict[int, tuple] = {}
        self._fabric_dirty = False
        # Incremental liveness state: counting running jobs here keeps
        # _check_liveness O(1) instead of an O(total-jobs) scan at every
        # scheduling point of a 7K-job trace replay.
        self._running = 0
        # Progress and time parts of every running job (DESIGN.md §7).
        self._table = RunningTable()
        self._events_processed = 0
        self._counters = {
            "event_batches": 0,
            "refresh_cycles": 0,
            "nodes_refreshed": 0,
            "node_failures": 0,
            "node_recoveries": 0,
            "job_evictions": 0,
            "job_retries": 0,
            "jobs_failed": 0,
            "profile_outages": 0,
        }
        # Count of terminal jobs (finished + failed): with a fault plan
        # the event queue can outlive the workload (recoveries scheduled
        # past the last completion), so the loop stops once every job is
        # accounted for instead of draining pointless fault events.
        self._terminal = 0
        # Running sum of finished jobs' turnaround times, so snapshot()
        # reports the mean without scanning the job table.
        self._turnaround_sum = 0.0
        # Streaming lifecycle flags: start() is idempotent, finalize()
        # closes telemetry exactly once.
        self._started = False
        self._finalized = False
        self.fault_plan = fault_plan
        self._has_faults = bool(fault_plan)
        self._retry = fault_plan.retry if fault_plan is not None \
            else RetryPolicy()
        if fault_plan is not None:
            if fault_plan.max_node_id() >= cluster_spec.num_nodes:
                raise SimulationError(
                    f"fault plan names node {fault_plan.max_node_id()} "
                    f"but the cluster has {cluster_spec.num_nodes} nodes"
                )
            for fault in fault_plan.node_faults:
                self.events.push_fault(
                    fault.fail_at, EventKind.NODE_FAIL, fault.node_id
                )
                if fault.recover_at is not None:
                    self.events.push_fault(
                        fault.recover_at, EventKind.NODE_RECOVER,
                        fault.node_id,
                    )
            for outage in fault_plan.profile_outages:
                self.events.push_fault(outage.start, EventKind.PROFILE_DOWN)
                self.events.push_fault(outage.end, EventKind.PROFILE_UP)
        for job in jobs:
            self.submit(job)

    @classmethod
    def from_policy_name(
        cls,
        policy_name: str,
        cluster_spec: ClusterSpec,
        jobs: Sequence[Job] = (),
        *,
        scheduler_config: SchedulerConfig = SchedulerConfig(),
        sim_config: SimConfig = SimConfig(),
        database=None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ) -> "SchedulerCore":
        """Construct a simulation from a policy *name* (a key of
        :data:`repro.scheduling.POLICIES`).  Every policy is built
        through the uniform ``(cluster_spec, config, *, database=None)``
        signature; unknown names raise ``KeyError``."""
        from repro.scheduling import POLICIES

        policy = POLICIES[policy_name](
            cluster_spec, scheduler_config, database=database
        )
        return cls(cluster_spec, policy, jobs, sim_config,
                   fault_plan=fault_plan, tracer=tracer)

    # ---------------------------------------------------- streaming facade

    def submit(self, job: Job) -> None:
        """Register one job and queue its submission event.

        Valid both before :meth:`start` (batch construction does exactly
        this for every preloaded job) and between :meth:`step` calls
        (streaming mode: the service master feeds arrivals in while the
        loop is live).  The submit time must not lie in the core's past;
        wall-clock-decoupled callers clamp it to a non-decreasing
        watermark before calling.
        """
        if job.job_id in self.jobs:
            raise SimulationError("duplicate job ids")
        self.events.push_submit(job.submit_time, job.job_id)
        self.jobs[job.job_id] = job

    def start(self) -> None:
        """Open the run: allocate episode telemetry and emit the
        tracer's meta record.  Idempotent; :meth:`step` calls it, so
        explicit use is only needed to force allocation early."""
        if self._started:
            return
        self._started = True
        if self.config.telemetry and self.telemetry is None:
            self.telemetry = TelemetryRecorder(len(self.cluster.nodes))
        if self.telemetry is not None:
            for nid in range(len(self.cluster.nodes)):
                self.telemetry.record(nid, 0.0, 0.0)
        if self.tracer is not None:
            fabric = self._fabric
            self.tracer.meta(
                policy=type(self.policy).__name__,
                partitioned=self.policy.partitioned,
                num_nodes=len(self.cluster.nodes),
                cores=self._spec.cores,
                llc_ways=self._spec.llc_ways,
                peak_bw=self._spec.peak_bw,
                n_jobs=len(self.jobs),
                fabric=None if fabric is None else {
                    "rack_size": fabric.rack_size,
                    "oversub": fabric.oversubscription,
                },
            )

    @property
    def now(self) -> float:
        """Current virtual time (the clock of the last processed event)."""
        return self.events.now

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live queued event, or ``None`` when the
        queue is drained — the watermark comparison point for
        wall-clock-decoupled stepping."""
        return self.events.peek_time()

    def step(self) -> bool:
        """Process one event: apply it, run a scheduling point, then
        refresh the speeds of the jobs it affected and check liveness;
        ``False`` when nothing remains.

        Returns ``False`` without popping when the workload is complete
        under a fault plan (leftover fault events cannot change anything
        and would only inflate the makespan) — a later :meth:`submit`
        reopens the workload and stepping resumes.
        """
        self.start()
        if (
            self._has_faults
            and self._counters["event_batches"] > 0
            and self._terminal == len(self.jobs)
        ):
            return False
        event = self.events.pop()
        if event is None:
            return False
        tracer = self.tracer
        trace_full = tracer is not None \
            and tracer.level >= TraceLevel.FULL
        now = self.events.now
        if now > self.config.max_sim_time:
            raise SimulationError("simulation exceeded max_sim_time")
        affected: Set[int] = set()
        touched: Set[int] = set()
        kind = event.kind
        if kind is EventKind.JOB_SUBMIT:
            job = self.jobs[event.job_id]
            if tracer is not None:
                tracer.submit(now, job)
            self.pending.push(job)
        elif kind is EventKind.JOB_FINISH:
            self._finish_job(self.jobs[event.job_id], now, affected, touched)
        elif kind is EventKind.NODE_FAIL:
            self._handle_node_fail(event.job_id, now, affected, touched)
        elif kind is EventKind.NODE_RECOVER:
            self._handle_node_recover(event.job_id)
            if tracer is not None:
                tracer.node_recover(now, event.job_id)
        else:  # PROFILE_DOWN / PROFILE_UP
            self._handle_profile_event(kind)
            if tracer is not None:
                tracer.profile_store(now, kind is EventKind.PROFILE_UP)
        self._scheduling_point(now, affected, touched)
        self._events_processed += 1
        self._counters["event_batches"] += 1
        if trace_full:
            tracer.batch(now, [kind.label])
        self._refresh(affected, touched, now)
        self._check_liveness()
        return True

    def snapshot(self) -> SimSnapshot:
        """O(1) view of the in-flight run (``GET /stats``)."""
        finished = self._terminal - self._counters["jobs_failed"]
        return SimSnapshot(
            now=self.events.now,
            submitted=len(self.jobs),
            pending=len(self.jobs) - self._running - self._terminal,
            running=self._running,
            finished=finished,
            failed=self._counters["jobs_failed"],
            events=self._events_processed,
            next_event_time=self.events.peek_time(),
            mean_turnaround=(
                self._turnaround_sum / finished if finished else None
            ),
        )

    def peek_result(self) -> SimulationResult:
        """Incremental :class:`SimulationResult` over in-flight state
        (``complete=False``): same accessors as the final result, but
        jobs may still be pending or running, the makespan is the
        current virtual time, and telemetry is left open."""
        return SimulationResult(
            jobs=list(self.jobs.values()),
            makespan=self.events.now,
            telemetry=self.telemetry,
            events=self._events_processed,
            counters=self._collect_counters(),
            trace=self.tracer,
            complete=False,
        )

    def finalize(self) -> SimulationResult:
        """Close the run and build the final result; raises when pending
        jobs can never be scheduled (deadlock)."""
        if self.pending:
            raise SimulationError(
                f"{len(self.pending)} jobs never scheduled (deadlock): "
                f"{[j.job_id for j in self.pending.head(5)]}"
            )
        makespan = self.events.now
        if self.telemetry is not None and not self._finalized:
            self.telemetry.close(makespan)
        self._finalized = True
        return SimulationResult(
            jobs=list(self.jobs.values()),
            makespan=makespan,
            telemetry=self.telemetry,
            events=self._events_processed,
            counters=self._collect_counters(),
            trace=self.tracer,
        )

    # ------------------------------------------------------------------ run

    def run(self) -> SimulationResult:
        """Execute to completion and return the result — exactly the
        streaming loop driven to exhaustion, so batch replay and the
        live service share every line of the event loop."""
        self.start()
        while self.step():
            pass
        return self.finalize()

    def _collect_counters(self) -> Dict[str, int]:
        """Aggregate instrumentation: runtime loop + cluster arbitration
        + policy queue counters + this run's perf-context kernel stats.
        The context is created fresh per Simulation, so its counters are
        absolute for this run — no snapshot deltas needed."""
        counters = dict(self._counters)
        counters["events"] = self._events_processed
        counters.update(self.cluster.counters)
        counters.update(self.policy.counters)
        counters.update(self.ctx.counters())
        return counters

    # ----------------------------------------------------------- internals

    def _finish_job(self, job: Job, now: float,
                    affected: Set[int], touched: Set[int]) -> None:
        """Settle and complete one job; the settle and speed refresh of
        its co-residents is deferred to the event's refresh (they are
        accumulated into ``affected``/``touched``)."""
        if job.state is not JobState.RUNNING:
            raise SimulationError(f"finish event for non-running job {job.job_id}")
        # Out of the table, the Job's own scalar settle applies.
        self._table.release(job)
        job.settle_progress(now)
        if job.remaining_work > 1e-6 * max(1.0, job.total_work):
            raise SimulationError(
                f"job {job.job_id} finished with work left "
                f"({job.remaining_work:.3g})"
            )
        placement = job.placement
        assert placement is not None
        # The job is the sole resident of any node it occupies alone —
        # only *shared* nodes can hold co-runners whose speed changes (a
        # columns-driven prune).
        residents = self.cluster.shared_resident_jobs(placement.nodes)
        residents.discard(job.job_id)
        self.cluster.remove_slices(placement.nodes, job.job_id)
        job.complete(now)
        # The job is terminal: its finish-event version entry can never
        # be consulted again (any heap leftovers read as stale against a
        # missing entry), so drop it to bound _versions memory.
        self.events.retire(job.job_id)
        if self.tracer is not None:
            self.tracer.finish(now, job, placement.n_nodes)
        if self._fabric is not None:
            self._fabric_note_end(job.job_id)
        self._running -= 1
        self._terminal += 1
        self._turnaround_sum += job.turnaround_time
        touched.update(placement.nodes.tolist())
        affected.update(residents)
        affected.discard(job.job_id)
        # Completion hook: lets policies piggyback profiling on finished
        # runs (paper Section 4.4: exclusive runs refresh the database).
        self.policy.on_job_finish(job, now)

    # ------------------------------------------------------- fault handling

    def _handle_node_fail(self, node_id: int, now: float,
                          affected: Set[int], touched: Set[int]) -> None:
        """A node dies: every resident job loses its run (all slices on
        all its nodes are evicted and the attempt's work becomes
        badput), then the node leaves the free-core index."""
        self._counters["node_failures"] += 1
        cluster = self.cluster
        residents = cluster.node(node_id).resident_job_ids
        if self.tracer is not None:
            self.tracer.node_fail(now, node_id, len(residents))
        for jid in residents:
            self._evict_job(self.jobs[jid], node_id, now,
                            affected, touched)
        cluster.fail_node(node_id)
        touched.add(node_id)

    def _evict_job(self, job: Job, failed_node: int, now: float,
                   affected: Set[int], touched: Set[int]) -> None:
        """Settle, tear down, and requeue (or fail) one running job hit
        by the failure of ``failed_node``."""
        placement = job.placement
        assert placement is not None
        # Co-runners only share nodes with it (see _finish_job).
        residents = self.cluster.shared_resident_jobs(placement.nodes)
        self.cluster.remove_slices(placement.nodes, job.job_id)
        self.events.cancel_finish(job.job_id)
        tracer = self.tracer
        lost_before = job.lost_node_seconds if tracer is not None else 0.0
        self._table.release(job)
        job.settle_progress(now)
        job.evict(now)
        if self._fabric is not None:
            self._fabric_note_end(job.job_id)
        self._running -= 1
        self._counters["job_evictions"] += 1
        self.policy.on_job_evict(job, now)
        touched.update(placement.nodes.tolist())
        residents.discard(job.job_id)
        affected.update(residents)
        affected.discard(job.job_id)
        if job.retries <= self._retry.max_retries:
            self._counters["job_retries"] += 1
            requeue_at: Optional[float] = now + self._retry.backoff_s
            self.events.push_submit(requeue_at, job.job_id)
        else:
            requeue_at = None
            job.mark_failed(now)
            # Terminal (retry budget exhausted): the version entry is
            # dead weight — drop it (see _finish_job).  Retried jobs
            # keep theirs so their version counter stays monotone.
            self.events.retire(job.job_id)
            self._counters["jobs_failed"] += 1
            self._terminal += 1
        if tracer is not None:
            tracer.evict(now, job, failed_node,
                         job.lost_node_seconds - lost_before, requeue_at)
            if requeue_at is None:
                tracer.job_failed(now, job)

    def _handle_node_recover(self, node_id: int) -> None:
        """A failed node rejoins, empty; recovery is a scheduling point
        (capacity appeared, exactly like a completion)."""
        self.cluster.recover_node(node_id)
        self._counters["node_recoveries"] += 1

    def _handle_profile_event(self, kind: EventKind) -> None:
        up = kind is EventKind.PROFILE_UP
        if not up:
            self._counters["profile_outages"] += 1
        self.policy.set_profile_store_available(up)

    # ------------------------------------------------------ fabric tracking

    def _fabric_note_start(self, job: Job,
                           placement: Placement) -> Optional[float]:
        """Register a just-started job with the physical fabric tracker.

        Returns the job's per-node cross-fabric network fraction (the
        tracer's ``xfrac``), or ``None`` when the placement stays inside
        one rack or the program never communicates — such jobs put no
        traffic on the ToR uplinks or the spine.  Only called when the
        fabric is active."""
        count = placement.n_nodes
        if count <= 1:
            return None
        uniq, cnt = np.unique(self._f_rack_of[placement.nodes],
                              return_counts=True)
        if uniq.size == 1:
            return None
        frac = job.program.comm.network_fraction(count)
        if frac == 0.0:
            return None
        self._cross_jobs[job.job_id] = (
            uniq, self._fabric.uplink_loads(frac, count, cnt)
        )
        self._fabric_dirty = True
        return frac

    def _fabric_note_end(self, job_id: int) -> None:
        """Deregister a finished/evicted job; no-op for jobs that never
        crossed racks.  Only called when the fabric is active."""
        if self._cross_jobs.pop(job_id, None) is not None:
            self._fabric_dirty = True

    def _recompute_fabric_loads(self, now: float) -> None:
        """Rebuild the physical per-link loads and per-job route loads
        from the cross-rack running set.

        Deterministic by construction: jobs accumulate in sorted-id
        order (:meth:`FabricSpec.link_utilization` keeps the scalar
        left-to-right sums), so the invariant checker's replay
        (:func:`repro.obs.invariants.check_trace`) reproduces every
        float exactly from the trace's ``start`` records."""
        cross = self._cross_jobs
        jids = sorted(cross)
        entries = [cross[jid] for jid in jids]
        tor_util, spine_util, route = self._fabric.link_utilization(
            len(self.cluster.nodes),
            [e[0] for e in entries], [e[1] for e in entries],
        )
        table = self._table
        table.rows[[table.slot[jid] for jid in jids], ROUTE] = route
        counters = self.ctx.batch_counters
        counters["fabric_link_refreshes"] += 1
        counters["fabric_route_evals"] += len(jids)
        if self.tracer is not None:
            self.tracer.links(now, tor_util.tolist(), spine_util)

    def _scheduling_point(self, now: float,
                          affected: Set[int], touched: Set[int]) -> None:
        if not self.pending:
            return
        tracer = self.tracer
        trace_sched = tracer is not None \
            and tracer.level >= TraceLevel.EVENTS
        if trace_sched:
            pending_before = len(self.pending)
            counters = self.policy.counters
            tried_before = counters.get("try_place_calls", 0)
        decisions = self.policy.schedule_point(self.cluster, self.pending, now)
        if trace_sched:
            tracer.sched(
                now, pending_before, len(decisions),
                counters.get("try_place_calls", 0) - tried_before,
            )
        if not decisions:
            return
        placed_ids = {d.job.job_id for d in decisions}
        if len(placed_ids) != len(decisions):
            raise SimulationError("policy placed the same job twice")
        new_nodes: Set[int] = set()
        for d in decisions:
            new_nodes.update(d.placement.nodes.tolist())
        # Co-runners on the new nodes change speed: the event's refresh
        # settles them at `now` (allocations do not advance time) before
        # it re-times them.  Residents not yet started are the decisions
        # below, which join the refresh anyway.
        affected.update(self.cluster.shared_resident_jobs(new_nodes))
        touched.update(new_nodes)
        if tracer is not None:
            # The policy installed every decision's slices before this
            # loop, so partner sets would otherwise see jobs whose start
            # records come *later* in the stream.  Emitting partners in
            # record order (exclude not-yet-emitted co-starters) keeps
            # the trace replayable.
            unstarted = {d.job.job_id for d in decisions}
        for d in decisions:
            job = d.job
            self.pending.remove(job)
            t_ref = reference_time(job.program, job.procs, self._spec)
            job.begin(now, t_ref * job.work_multiplier, d.placement,
                      d.scale_factor)
            self._table.add(job.job_id, t_ref, job.total_work, now)
            self._running += 1
            affected.add(job.job_id)
            xfrac = None
            if self._fabric is not None:
                xfrac = self._fabric_note_start(job, d.placement)
            if tracer is not None:
                unstarted.discard(job.job_id)
                partners = self.cluster.resident_jobs_on(
                    d.placement.nodes
                )
                partners.discard(job.job_id)
                partners -= unstarted
                tracer.start(now, job, d, partners, xfrac=xfrac)

    def _check_liveness(self) -> None:
        if self.pending and self._running == 0 \
                and self.events.peek_time() is None:
            raise SimulationError(
                "scheduler placed nothing on an idle cluster with pending "
                f"jobs {[j.job_id for j in self.pending.head(5)]}"
            )

    def _refresh(self, job_ids: Set[int], touched_nodes: Set[int],
                 now: float) -> None:
        """Recompute speeds and finish events for the given jobs, and
        record telemetry for every node whose conditions changed.

        ``job_ids`` holds the jobs started by this event and the running
        jobs sharing a touched node, so their table rows are stale and
        are rebuilt first (:meth:`_rebuild_rows`).  When the cross-rack
        set changed, every cross job joins the refresh (they all share
        the spine), but only its route load moved: its row's time parts
        stay, and no condition key is read for it.  One expression then
        settles every row at its old speed and re-times it
        (:meth:`RunningTable.retime`); finish pushes and speed records
        follow the set's iteration order.  The reference mode instead
        evaluates :func:`job_time` per job (:meth:`_reference_times`).
        """
        stale = job_ids
        if self._fabric is not None and self._fabric_dirty:
            self._fabric_dirty = False
            self._recompute_fabric_loads(now)
            job_ids = job_ids | self._cross_jobs.keys()
        slot_of = self._table.slot
        jids: List[int] = []
        slots: List[int] = []
        for jid in job_ids:
            slot = slot_of.get(jid)
            if slot is not None:
                jids.append(jid)
                slots.append(slot)
            elif jid not in self.jobs:
                raise SimulationError(
                    f"node hosts unknown job {jid} (policy placed a job "
                    f"that was never submitted)"
                )
        if not jids and (self.telemetry is None or not touched_nodes):
            return
        self._counters["refresh_cycles"] += 1
        if self.ctx.enabled:
            t_now = None
            self._rebuild_rows([(jid, slot) for jid, slot in zip(jids, slots)
                                if jid in stale])
            self.ctx.batch_counters["vec_finish_updates"] += len(jids)
        else:
            t_now = self._reference_times(jids)
        if jids:
            speeds, finishes = self._table.retime(slots, jids, now, t_now)
            tracer = self.tracer
            if tracer is not None and tracer.level >= TraceLevel.FULL:
                for jid, speed in zip(jids, speeds):
                    tracer.speed(now, jid, speed)
            push_finish = self.events.push_finish
            for finish, jid in zip(finishes, jids):
                push_finish(finish, jid)
        if self.telemetry is not None and touched_nodes:
            views = self.cluster.arbitration_batch(touched_nodes)
            for nid in touched_nodes:
                self.telemetry.record(
                    nid, now, sum(views[nid][1]),
                    cores=self.cluster.node(nid).used_cores,
                )

    def _rebuild_rows(self, stale: List[tuple]) -> None:
        """Rebuild the time parts of the ``(job id, slot)`` rows.  Each
        job's distinct condition keys ``(procs, effective ways, granted
        GB/s, net load)`` come from one representative node per distinct
        resident mix over its placement (a gather of the mix column),
        and :func:`time_parts` reduces them once."""
        if not stale:
            return
        cluster = self.cluster
        mixes = cluster.mixes
        groups = []
        reps: Dict[int, int] = {}
        for jid, slot in stale:
            job = self.jobs[jid]
            nodes = job.placement.nodes
            mids, _, where, _ = distinct(mixes.mix[nodes], len(mixes.keys))
            for m, i in zip(mids, where):
                if m not in reps:
                    reps[m] = int(nodes[i])
            groups.append((job, slot, mids))
        self._counters["nodes_refreshed"] += len(reps)
        views = cluster.arbitration_batch(list(reps.values()))
        keys = mixes.keys
        rows = self._table.rows
        for job, slot, mids in groups:
            jid = job.job_id
            conds: Dict[tuple, None] = {}
            for m in mids:
                view = views[reps[m]]
                i = view[0].index(jid)
                conds[(keys[m][i][1], view[3][i], view[1][i], view[2])] = None
            rows[slot, COMPUTE:ROUTE] = time_parts(
                self._spec, job.program, job.procs,
                job.placement.n_nodes, rows.item(slot, T_REF), conds,
            )

    def _reference_times(self, jids: List[int]) -> List[float]:
        """Reference mode: each job's :func:`job_time` from scratch, over
        the full per-node conditions list of its placement."""
        jobs = [self.jobs[jid] for jid in jids]
        nodes_needed: Set[int] = set()
        for job in jobs:
            nodes_needed.update(job.placement.node_ids)
        self._counters["nodes_refreshed"] += len(nodes_needed)
        views = self.cluster.arbitration_batch(nodes_needed)
        # Nodes carrying identical slices yield identical conditions;
        # interning them keeps wide jobs from re-validating thousands of
        # equal NodeConditions (job_time dedupes on the same identity).
        interned: Dict[tuple, NodeConditions] = {}
        cache = self._spec.cache
        table = self._table
        t_now = []
        for job in jobs:
            jid = job.job_id
            placement = job.placement
            conditions = []
            for nid, procs in zip(placement.node_ids,
                                  placement.procs.tolist()):
                view = views[nid]
                slot = view[0].index(jid)
                grant = view[1][slot]
                eff = view[3][slot]
                key = (procs, eff, grant, view[2])
                cond = interned.get(key)
                if cond is None:
                    cap = cache.ways_to_mb(eff) / procs
                    cond = NodeConditions(
                        procs, cap, grant, net_load=view[2]
                    )
                    interned[key] = cond
                conditions.append(cond)
            t_now.append(job_time(
                job.program, job.procs, conditions, self._spec,
                route_load=table.rows.item(table.slot[jid], ROUTE),
            ))
        return t_now


class Simulation(SchedulerCore):
    """One simulated execution of a preloaded job sequence under one
    policy — the batch facade over :class:`SchedulerCore`.

    Nothing is overridden: construct with the complete job list and call
    :meth:`SchedulerCore.run`.  The name survives as the entry point the
    experiment harnesses, grid runners, and tests build, while the
    streaming surface (``submit`` / ``step`` / ``snapshot``) lives on
    the core for the live service.
    """
