"""Blocked pending jobs: a job whose placement failed is re-tried at
every scheduling point, starts exactly when a release frees what it
needs, is never starved or silently dropped, and replays the oracle
(``tests/oracle``), which re-tries every pending job in full at every
scheduling point.  Also the online profile store's version, which keys the
SNS demand cache (DESIGN.md §7)."""

from __future__ import annotations

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.hardware.topology import ClusterSpec
from repro.profiling.online import OnlineProfileStore
from repro.scheduling.ce import CompactExclusiveScheduler
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.job import Job, JobState
from repro.sim.runtime import Simulation
from tests.against_oracle import FULL, assert_matches_oracle


def congested_jobs():
    """One node-filling job, then a queue of same-shaped jobs submitted
    while it runs — every later submit re-triggers a scheduling point at
    which the blocked head of the queue would be re-tried."""
    ep = get_program("EP")
    return [
        Job(job_id=i, program=ep, procs=28, submit_time=float(i))
        for i in range(6)
    ]


def replay(jobs, policy_cls, nodes=1, config=SimConfig()):
    spec = ClusterSpec(num_nodes=nodes)
    return Simulation(spec, policy_cls(spec), jobs, config)


@pytest.mark.parametrize(
    "policy_cls", [CompactExclusiveScheduler, SpreadNShareScheduler]
)
class TestSkipIndex:
    def test_skips_hit_and_nothing_is_starved(self, policy_cls):
        result = replay(congested_jobs(), policy_cls).run()
        # The queue was congested (jobs were tried and failed), and yet
        # every job ran to completion.
        assert result.counters["try_place_calls"] > 6
        assert len(result.finished_jobs) == 6

    def test_retried_after_release_frees_capacity(self, policy_cls):
        result = replay(congested_jobs(), policy_cls).run()
        # Jobs run strictly one after another on the single node: each
        # blocked job starts exactly when a completion releases the
        # cores it was waiting for.
        finishes = sorted(j.finish_time for j in result.finished_jobs)
        starts = sorted(j.start_time for j in result.finished_jobs)
        for finish, start in zip(finishes, starts[1:]):
            assert start == pytest.approx(finish)

    def test_bit_identical_to_full_rescan(self, policy_cls):
        assert_matches_oracle(
            replay(congested_jobs(), policy_cls, config=FULL))

    def test_impossible_job_still_raises_liveness_error(self, policy_cls):
        # A job too wide for the whole cluster must surface as a
        # deadlock/liveness SimulationError, not wait in silence.
        job = Job(job_id=0, program=get_program("EP"), procs=56)
        with pytest.raises(SimulationError):
            replay([job], policy_cls, nodes=1).run()
        assert job.state is not JobState.FINISHED


class TestWatermark:
    def test_headroom_below_watermark_skips_without_retry(self):
        """While max free cores stay below the job's cheapest shape, the
        job waits even across releases, and starts only once a full
        node drains."""
        spec = ClusterSpec(num_nodes=2)
        policy = CompactExclusiveScheduler(spec)
        ep = get_program("EP")
        jobs = [
            # Two 20-core jobs of different lengths occupy both nodes.
            Job(job_id=0, program=ep, procs=20, submit_time=0.0),
            Job(job_id=1, program=ep, procs=20, submit_time=0.0,
                work_multiplier=2.0),
            # Needs 28 free cores on one node: infeasible until a full
            # node frees up; the job 0 completion alone frees only 20.
            Job(job_id=2, program=ep, procs=28, submit_time=1.0),
            # Fits next to nothing while 28-core job ages; keeps events
            # flowing so scheduling points occur.
            Job(job_id=3, program=ep, procs=8, submit_time=2.0),
        ]
        result = Simulation(spec, policy, jobs).run()
        assert len(result.finished_jobs) == 4
        # The wide job could only start after job 0's node fully drained.
        job2 = next(j for j in result.finished_jobs if j.job_id == 2)
        assert job2.start_time > 0.0


class TestOnlineStoreVersion:
    def test_trial_lifecycle_bumps_version(self):
        spec = ClusterSpec(num_nodes=8)
        store = OnlineProfileStore(
            spec=spec.node, max_cluster_nodes=spec.num_nodes
        )
        mg = get_program("MG")
        v0 = store.version
        scale = store.next_trial_scale(mg, 16)
        assert scale is not None
        store.begin_trial(mg, 16, scale)
        v1 = store.version
        assert v1 > v0
        store.abort_trial(mg, 16)
        v2 = store.version
        assert v2 > v1
        store.begin_trial(mg, 16, scale)
        store.record_trial(mg, 16, scale, observed_time=100.0)
        assert store.version > v2

    def test_version_feeds_feasibility(self):
        """OnlineSNS reports the store version as its feasibility
        version, so demand-cache entries die when profiles change."""
        from repro.scheduling.online_sns import OnlineSpreadNShareScheduler
        spec = ClusterSpec(num_nodes=8)
        policy = OnlineSpreadNShareScheduler(spec)
        before = policy._feasibility_version()
        mg = get_program("MG")
        scale = policy.store.next_trial_scale(mg, 16)
        policy.store.begin_trial(mg, 16, scale)
        assert policy._feasibility_version() != before
