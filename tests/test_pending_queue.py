"""The runtime's priority-ordered pending queue (DESIGN.md §7).

``PendingQueue.head(k)`` must always equal ``heapq.nsmallest(k)`` over
the queued jobs by the aging priority key — through arrivals, requeues
of old jobs, removals and aging — and whole congested replays must
schedule exactly as the rank-the-whole-queue implementation did.
"""

from __future__ import annotations

import hashlib
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import get_program
from repro.config import SchedulerConfig, SimConfig
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.hardware.topology import ClusterSpec
from repro.sim.job import Job, PendingQueue
from repro.sim.runtime import Simulation
from repro.workloads.sequences import random_sequence

EP = get_program("EP")


def oracle_key(job):
    """Test-local restatement of the Section 4.4 priority order."""
    return (-job.times_passed_over, job.submit_time, job.job_id)


def make_job(job_id, submit_time=0.0, age=0):
    job = Job(job_id=job_id, program=EP, procs=4, submit_time=submit_time)
    job.times_passed_over = age
    return job


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_head_matches_nsmallest_through_random_operations(data):
    queue = PendingQueue()
    queued = []  # the oracle's job set
    window = 0  # length of the queue's last head() window
    next_id = 0
    for _ in range(data.draw(st.integers(1, 40), label="n_ops")):
        op = data.draw(st.sampled_from(
            ["push", "push", "remove", "head", "age", "age_outside"]
        ))
        if op == "push":
            # Equal submit times, old submit times (a requeue after an
            # eviction) and nonzero ages are all drawn.
            job = make_job(
                next_id,
                submit_time=float(data.draw(st.integers(0, 5))),
                age=data.draw(st.integers(0, 3)),
            )
            next_id += 1
            queue.push(job)
            queued.append(job)
            window = 0  # a push opens a new round
        elif op == "remove" and queued:
            job = data.draw(st.sampled_from(queued))
            rank = sorted(queued, key=oracle_key).index(job)
            queue.remove(job)
            queued.remove(job)
            if rank < window:
                window -= 1
        elif op == "head":
            window = min(data.draw(st.integers(0, 8)), len(queued))
        elif op == "age" and window:
            handed = heapq.nsmallest(window, queued, key=oracle_key)
            # Any subset, in any order: out-of-order hand-backs take the
            # queue's rescan path.
            picks = data.draw(st.lists(st.integers(0, window - 1),
                                       unique=True))
            aged = [handed[i] for i in data.draw(st.permutations(picks))]
            before = {j.job_id: j.times_passed_over for j in queued}
            queue.age(aged)
            for job in queued:
                assert job.times_passed_over == (
                    before[job.job_id] + (job in aged)
                )
        elif op == "age_outside":
            handed = heapq.nsmallest(window, queued, key=oracle_key)
            outside = [j for j in queued if j not in handed]
            if outside:
                job = data.draw(st.sampled_from(outside))
                before = [j.times_passed_over for j in queued]
                with pytest.raises(SimulationError, match="head"):
                    queue.age(handed + [job])
                # A rejected age() changes no key.
                assert [j.times_passed_over for j in queued] == before
        assert len(queue) == len(queued)
        k = data.draw(st.integers(0, len(queued) + 1), label="k")
        assert queue.head(k) == heapq.nsmallest(k, queued, key=oracle_key)
        # Restore the policy's window; it must be the same jobs again.
        assert queue.head(window) == heapq.nsmallest(
            window, queued, key=oracle_key
        )


class TestAgingContract:
    def test_age_outside_last_head_raises(self):
        jobs = [make_job(i, submit_time=float(i)) for i in range(5)]
        queue = PendingQueue(jobs)
        head = queue.head(2)
        assert head == jobs[:2]
        with pytest.raises(SimulationError, match="last head"):
            queue.age([jobs[2]])
        queue.age(head)
        assert [j.times_passed_over for j in jobs] == [1, 1, 0, 0, 0]

    def test_age_needs_a_head_after_a_push(self):
        job = make_job(0)
        queue = PendingQueue([job])
        queue.head(1)
        queue.push(make_job(1))
        with pytest.raises(SimulationError, match="head"):
            queue.age([job])

    def test_aged_job_overtakes_the_queue(self):
        jobs = [make_job(i, submit_time=float(i)) for i in range(4)]
        queue = PendingQueue(jobs)
        queue.head(4)
        queue.age([jobs[3]])
        assert queue.head(4) == [jobs[3]] + jobs[:3]

    def test_requeued_job_lands_in_order(self):
        queue = PendingQueue(
            [make_job(i, submit_time=float(10 * i)) for i in range(4)]
        )
        old = make_job(9, submit_time=15.0, age=0)
        queue.push(old)
        assert [j.job_id for j in queue.head(5)] == [0, 1, 9, 2, 3]

    def test_remove_is_by_identity(self):
        job = make_job(0)
        twin = make_job(0)  # equal field by field, not the queued object
        queue = PendingQueue([job])
        with pytest.raises(SimulationError, match="not pending"):
            queue.remove(twin)
        queue.remove(job)
        assert len(queue) == 0


def congested_jobs():
    """60 random one- and two-node jobs arriving every 20 s onto 8 nodes:
    the queue grows far past a 4-job scan window, so aging and
    head-of-line blocking decide the order."""
    jobs = random_sequence(seed=11, n_jobs=60, proc_choices=(16, 28, 56),
                           program_names=("MG", "CG", "EP", "LU", "BFS"))
    for i, job in enumerate(jobs):
        job.submit_time = 20.0 * i
    return jobs


def schedule_digest(result):
    """Every job's outcome and placement, floats in ``repr`` form."""
    h = hashlib.sha256(repr(result.makespan).encode())
    for job in sorted(result.jobs, key=lambda j: j.job_id):
        nodes = job.placement.node_ids if job.placement else None
        h.update(repr((
            job.job_id, job.state.value, job.start_time, job.finish_time,
            job.scale_factor, nodes, job.retries,
        )).encode())
    return h.hexdigest()


#: Digests recorded with the implementation that re-ranked the whole
#: pending list at every scheduling point (``heapq.nsmallest``).
CONGESTED_DIGESTS = {
    ("SNS", False):
        "982ecdad406e5fb7c2161a5b2663c8d69cef9f8bc9b3d38925a983c1d4831f90",
    ("SNS", True):
        "b20ebef1f8bcdc0df1966e88e73344659ee11a1d24074214a1f1d9a551a96289",
    ("CE", False):
        "13abfde9a242c9b029b737afba53dcb4e047058fc33dde01ce90b65e75797e1c",
    ("CE", True):
        "b8f7e27cf84a3d7cdf251e9ac9f435d241ea2d2b4b1c7d2094aae540908dc248",
    ("CS", False):
        "7041e0b1e321dd7bfc482a028e3030ff82340e428fa94fcdad634da5379e391f",
    ("CS", True):
        "6623a25708e3315c73c47d734f8ef6e075d5495779a6044571ebcf5a7ce6d38f",
    ("CE-BF", False):
        "7bc5e28fc3d8958d42746a283ff57e7dfbf181257a938a3199d44b4fa8160ddb",
    ("CE-BF", True):
        "010bcadc413eaa3bef4486f3bba25bc8f0c29c16726594a3b37a89e3b745fb7c",
}


@pytest.mark.parametrize("faults", [False, True], ids=["plain", "faults"])
@pytest.mark.parametrize("policy", ["SNS", "CE", "CS", "CE-BF"])
def test_congested_replay_schedule_unchanged(policy, faults):
    spec = ClusterSpec(num_nodes=8)
    # Node failures evict running jobs, which requeue with their old
    # submit times and ages into the middle of the queue.
    plan = FaultPlan.from_mtbf(seed=5, num_nodes=8, mtbf_s=20000.0,
                               mttr_s=500.0, horizon_s=10000.0) \
        if faults else None
    result = Simulation.from_policy_name(
        policy, spec, congested_jobs(),
        scheduler_config=SchedulerConfig(max_queue_scan=4),
        sim_config=SimConfig(),
        fault_plan=plan,
    ).run()
    assert schedule_digest(result) == CONGESTED_DIGESTS[policy, faults]
