"""EASY-backfilling CE baseline."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.execution import reference_time
from repro.scheduling.backfill import CompactExclusiveBackfillScheduler
from repro.scheduling.ce import CompactExclusiveScheduler
from repro.sim.job import Job, JobState
from repro.sim.runtime import Simulation
from repro.workloads.sequences import clone_jobs, random_sequence

EP = get_program("EP")
MG = get_program("MG")


def run(jobs, nodes=4, policy_cls=CompactExclusiveBackfillScheduler):
    cluster = ClusterSpec(num_nodes=nodes)
    return Simulation(cluster, policy_cls(cluster), jobs,
                      SimConfig()).run()


class TestBackfillMechanics:
    def test_small_job_jumps_blocked_head(self):
        """A wide head job blocks; a short narrow job backfills."""
        # Node-filling long job occupies 3 of 4 nodes...
        wide_running = [
            Job(job_id=i, program=MG, procs=28, work_multiplier=2.0)
            for i in range(3)
        ]
        # ...the head needs 2 nodes (only 1 idle): blocked.
        head = Job(job_id=10, program=MG, procs=56)
        # A 1-node short job fits in the hole and finishes long before
        # the reservation.
        filler = Job(job_id=11, program=EP, procs=28)
        jobs = wide_running + [head, filler]
        run(jobs, nodes=4)
        assert filler.start_time == pytest.approx(0.0)
        assert head.start_time > 0.0

    def test_backfill_never_delays_head(self):
        """The head's start time with backfilling must not exceed its
        start time without (EASY guarantee, deterministic runtimes)."""
        jobs_spec = [
            (MG, 28, 2.0), (MG, 28, 2.0), (MG, 28, 2.0),  # fill 3 nodes
            (MG, 56, 1.0),                                  # blocked head
            (EP, 28, 1.0), (EP, 28, 1.0),                   # fillers
        ]
        def make():
            return [
                Job(job_id=i, program=p, procs=procs, work_multiplier=m)
                for i, (p, procs, m) in enumerate(jobs_spec)
            ]
        plain = make()
        run(plain, nodes=4, policy_cls=CompactExclusiveScheduler)
        backfilled = make()
        run(backfilled, nodes=4)
        assert backfilled[3].start_time <= plain[3].start_time + 1e-6

    def test_long_filler_does_not_steal_reserved_nodes(self):
        """A filler that would push past the reservation and needs the
        reserved nodes must wait."""
        blockers = [
            Job(job_id=i, program=MG, procs=28) for i in range(3)
        ]
        head = Job(job_id=10, program=MG, procs=56)
        long_filler = Job(job_id=11, program=EP, procs=28,
                          work_multiplier=50.0)
        jobs = blockers + [head, long_filler]
        run(jobs, nodes=4)
        # The long filler would occupy the single idle node far past the
        # blockers' finish; starting it would delay the head.
        assert head.start_time <= long_filler.start_time

    def test_all_jobs_finish(self):
        jobs = random_sequence(seed=3, n_jobs=20)
        result = run(jobs, nodes=8)
        assert all(j.state is JobState.FINISHED for j in result.jobs)

    def test_equivalent_to_ce_when_nothing_blocks(self):
        jobs = [Job(job_id=i, program=EP, procs=16) for i in range(3)]
        result_bf = run(clone_jobs(jobs), nodes=4)
        result_ce = run(clone_jobs(jobs), nodes=4,
                        policy_cls=CompactExclusiveScheduler)
        assert result_bf.makespan == pytest.approx(result_ce.makespan)


class TestBackfillPerformance:
    def test_backfill_improves_ce_throughput(self):
        """Across seeds, EASY backfilling should not hurt CE and usually
        helps (that is its point)."""
        gains = []
        for seed in range(6):
            jobs = random_sequence(seed=300 + seed, n_jobs=20)
            ce = run(clone_jobs(jobs), nodes=8,
                     policy_cls=CompactExclusiveScheduler)
            bf = run(clone_jobs(jobs), nodes=8)
            gains.append(bf.throughput() / ce.throughput())
        assert sum(gains) / len(gains) >= 1.0
        assert min(gains) > 0.9

    def test_sns_still_beats_backfilled_ce(self):
        """SNS's resource-awareness is worth more than queue reordering:
        it should beat CE-BF on average (the motivation for comparing)."""
        from repro.scheduling.sns import SpreadNShareScheduler

        wins = 0
        for seed in range(6):
            jobs = random_sequence(seed=300 + seed, n_jobs=20)
            bf = run(clone_jobs(jobs), nodes=8)
            cluster = ClusterSpec(num_nodes=8)
            sns = Simulation(
                cluster, SpreadNShareScheduler(cluster), clone_jobs(jobs),
                SimConfig(),
            ).run()
            if sns.throughput() > bf.throughput():
                wins += 1
        assert wins >= 4
