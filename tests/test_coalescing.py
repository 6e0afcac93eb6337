"""Event coalescing: same-timestamp submit bursts drain into one
settle → place → refresh batch, bit-identically to per-event processing
(DESIGN.md §7).  Cache mode is selected per simulation through
``SimConfig.perf_caches`` — no process-global state to reset between
tests."""

from __future__ import annotations

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.hardware.topology import ClusterSpec
from repro.scheduling.ce import CompactExclusiveScheduler
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.job import Job
from repro.sim.runtime import Simulation


def burst_jobs(k: int = 8, at: float = 0.0):
    """``k`` jobs all submitted at the same timestamp."""
    programs = ("EP", "MG", "CG", "WC")
    return [
        Job(job_id=i, program=get_program(programs[i % len(programs)]),
            procs=16, submit_time=at)
        for i in range(k)
    ]


def replay(jobs, policy_cls, nodes=8, caches=None):
    spec = ClusterSpec(num_nodes=nodes)
    result = Simulation(
        spec, policy_cls(spec), jobs,
        SimConfig(perf_caches=caches),
    ).run()
    return result


def outcome(result):
    return (
        result.makespan,
        sorted(
            (j.job_id, j.start_time, j.finish_time,
             j.placement.node_ids if j.placement else None)
            for j in result.finished_jobs
        ),
    )


@pytest.mark.parametrize(
    "policy_cls", [CompactExclusiveScheduler, SpreadNShareScheduler]
)
class TestCoalescedEquivalence:
    def test_burst_matches_per_event_reference(self, policy_cls):
        fast = replay(burst_jobs(), policy_cls, caches=True)
        reference = replay(burst_jobs(), policy_cls, caches=False)
        assert outcome(fast) == outcome(reference)

    def test_burst_coalesces_and_saves_cycles(self, policy_cls):
        k = 8
        result = replay(burst_jobs(k), policy_cls, caches=True)
        counters = result.counters
        # All k submits share one timestamp: the batch count must be
        # strictly below the event count, and the difference is exactly
        # the coalesced events.
        assert counters["events_coalesced"] > 0
        assert counters["event_batches"] < counters["events"]
        assert counters["events"] - counters["event_batches"] == \
            counters["events_coalesced"]
        # One settle/refresh cycle per batch at most — strictly fewer
        # than one per event.
        assert counters["refresh_cycles"] <= counters["event_batches"]
        assert counters["refresh_cycles"] < counters["events"]

    def test_reference_path_never_coalesces(self, policy_cls):
        result = replay(burst_jobs(), policy_cls, caches=False)
        assert result.counters["events_coalesced"] == 0
        assert result.counters["event_batches"] == \
            result.counters["events"]

    def test_mixed_timestamps_only_merge_equal_ones(self, policy_cls):
        def build():
            return burst_jobs(4, at=0.0) + [
                Job(job_id=100 + i, program=get_program("EP"), procs=16,
                    submit_time=50.0 * (i + 1))
                for i in range(3)
            ]

        fast = replay(build(), policy_cls, caches=True)
        assert fast.counters["events_coalesced"] >= 3
        reference = replay(build(), policy_cls, caches=False)
        # Results must match even though the spaced submits each got
        # their own batch.
        assert fast.makespan == reference.makespan
        assert sorted(j.finish_time for j in fast.finished_jobs) == \
            sorted(j.finish_time for j in reference.finished_jobs)


def identical_jobs(k: int = 6, program: str = "EP", procs: int = 16):
    """``k`` indistinguishable jobs: same program, same size, same
    submit instant — placed together by CE, they run at the same rate
    and reach bitwise-identical finish timestamps."""
    return [
        Job(job_id=i, program=get_program(program), procs=procs,
            submit_time=0.0)
        for i in range(k)
    ]


class TestFinishCoalescing:
    """Same-timestamp *finish* bursts drain into one release → settle →
    refresh cycle, under the lazy-cancellation and kind-order rules of
    :meth:`EventQueue.pop_finish_at`."""

    def test_finish_burst_batches_into_one_cycle(self):
        """k identical exclusive jobs finish at one instant: the fast
        path folds all k finishes into a single batch (and all k
        submits into another), bit-identically to the per-event loop."""
        k = 6
        fast = replay(identical_jobs(k), CompactExclusiveScheduler,
                      caches=True)
        reference = replay(identical_jobs(k), CompactExclusiveScheduler,
                           caches=False)
        assert outcome(fast) == outcome(reference)
        finishes = {j.finish_time for j in fast.finished_jobs}
        assert len(finishes) == 1  # the premise: one finish storm
        counters = fast.counters
        assert counters["events"] == 2 * k
        # Batch 1: the submit burst.  Batch 2: the finish storm —
        # exclusive placements never put a finisher into the batch's
        # affected set, so nothing blocks the drain.
        assert counters["event_batches"] == 2
        assert counters["events_coalesced"] == 2 * k - 2

    def test_finish_burst_on_shared_nodes_matches_reference(self):
        """SNS co-locates slices, so a finisher's neighbors land in the
        batch's affected set and their finishes must NOT coalesce past
        the refresh (blocked drain).  Whatever batching results, it must
        be bit-identical to the per-event reference."""
        fast = replay(identical_jobs(8, program="CG"),
                      SpreadNShareScheduler, caches=True)
        reference = replay(identical_jobs(8, program="CG"),
                           SpreadNShareScheduler, caches=False)
        assert outcome(fast) == outcome(reference)

    def test_stale_finishes_skipped_by_drain(self):
        """Re-pushing a job's finish leaves the old heap entry stale;
        the drain discards it silently and returns the live one."""
        from repro.sim.engine import EventQueue

        q = EventQueue()
        q.push_finish(5.0, 1)  # becomes stale...
        q.push_finish(5.0, 1)  # ...when the finish is re-pushed
        q.push_finish(5.0, 2)
        ev = q.pop()
        assert (ev.job_id, ev.version) == (1, 2)
        nxt, blocked = q.pop_finish_at(5.0, exclude=set())
        assert not blocked and nxt.job_id == 2
        assert q.pop() is None  # the stale entry never surfaced

    def test_stale_only_head_does_not_block(self):
        """A drain that eats only stale finishes reports 'no finish
        here' (not blocked), letting the caller move on to submits."""
        from repro.sim.engine import EventQueue

        q = EventQueue()
        q.push_submit(0.0, 7)
        assert q.pop().job_id == 7
        q.push_finish(5.0, 1)
        q.cancel_finish(1)
        q.push_submit(5.0, 9)
        nxt, blocked = q.pop_finish_at(5.0, exclude=set())
        assert nxt is None and not blocked
        assert q.pop_submit_at(5.0).job_id == 9

    def test_touched_job_finish_blocks_the_batch(self):
        """A live finish for a job the batch already affected must end
        the batch (blocked), not fall through to the submit drain: on
        the unbatched path the re-pushed finish (kind 0) pops before
        any same-instant submit (kind 5)."""
        from repro.sim.engine import EventQueue

        q = EventQueue()
        q.push_submit(0.0, 7)
        assert q.pop().job_id == 7
        q.push_finish(5.0, 3)
        q.push_submit(5.0, 8)
        nxt, blocked = q.pop_finish_at(5.0, exclude={3})
        assert nxt is None and blocked
        ev = q.pop()  # the blocked finish is still queued and live
        assert ev.kind.name == "JOB_FINISH" and ev.job_id == 3

    def test_finish_orders_before_node_fail_at_same_instant(self):
        """EventKind tie-break: a job completing at the very instant its
        node dies still completes (JOB_FINISH < NODE_FAIL)."""
        from repro.sim.engine import EventKind, EventQueue

        q = EventQueue()
        q.push_fault(5.0, EventKind.NODE_FAIL, 0)
        q.push_finish(5.0, 1)  # pushed later, pops first
        assert q.pop().kind is EventKind.JOB_FINISH
        assert q.pop().kind is EventKind.NODE_FAIL

    @pytest.mark.parametrize("caches", [True, False])
    def test_node_fails_at_finish_instant_job_still_completes(self, caches):
        """End-to-end tie-break: schedule a NODE_FAIL at exactly the
        job's finish timestamp on one of its own nodes.  The finish
        processes first, so the job completes normally — no eviction,
        no retry — on both the coalescing and the per-event loop."""
        from repro.faults import FaultPlan, NodeFault
        from repro.hardware.topology import ClusterSpec as _Spec

        jobs = [Job(job_id=0, program=get_program("EP"), procs=16,
                    submit_time=0.0)]
        clean = replay(list(jobs), CompactExclusiveScheduler,
                       caches=caches)
        (job,) = clean.finished_jobs
        victim = job.placement.node_ids[0]
        finish_at = job.finish_time

        spec = _Spec(num_nodes=8)
        plan = FaultPlan(node_faults=(
            NodeFault(node_id=victim, fail_at=finish_at),
        ))
        rerun = Simulation(
            spec, CompactExclusiveScheduler(spec),
            [Job(job_id=0, program=get_program("EP"), procs=16,
                 submit_time=0.0)],
            SimConfig(perf_caches=caches),
            fault_plan=plan,
        ).run()
        (survivor,) = rerun.finished_jobs
        assert survivor.finish_time == finish_at
        assert survivor.retries == 0
