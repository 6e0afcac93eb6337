"""End-to-end SNS invariants over full simulations."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SchedulerConfig, SimConfig
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.execution import reference_time
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.job import Job, JobState
from repro.sim.runtime import Simulation
from repro.workloads.sequences import clone_jobs, random_sequence


def run_sns(jobs, nodes=8, config=None):
    cluster = ClusterSpec(num_nodes=nodes)
    policy = SpreadNShareScheduler(cluster, config or SchedulerConfig())
    return Simulation(cluster, policy, jobs, SimConfig()).run()


class TestInvariants:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sns(random_sequence(seed=11, n_jobs=20))

    def test_every_job_finishes(self, result):
        assert all(j.state is JobState.FINISHED for j in result.jobs)

    def test_scale_factors_within_candidates(self, result):
        assert all(j.scale_factor in (1, 2, 4, 8) for j in result.jobs)

    def test_footprints_match_scale(self, result):
        spec = ClusterSpec(num_nodes=8).node
        for job in result.jobs:
            base = spec.min_nodes_for(job.procs)
            assert job.placement.n_nodes == job.scale_factor * base

    def test_min_ways_respected(self, result):
        assert all(j.placement.dedicated_ways >= 2 for j in result.jobs)

    def test_single_node_programs_on_one_node(self, result):
        for job in result.jobs:
            if job.program.max_nodes == 1:
                assert job.placement.n_nodes == 1

    def test_solo_exclusive_jobs_hit_reference_time(self):
        """A lone job on an empty cluster must match its CE-equivalent
        run time exactly when SNS chooses scale 1."""
        wc = get_program("WC")
        job = Job(job_id=0, program=wc, procs=16)
        run_sns([job], nodes=8)
        spec = ClusterSpec(num_nodes=8).node
        assert job.scale_factor == 1
        assert job.run_time == pytest.approx(reference_time(wc, 16, spec))

    def test_scaling_job_beats_reference_when_alone(self):
        cg = get_program("CG")
        job = Job(job_id=0, program=cg, procs=16)
        run_sns([job], nodes=8)
        spec = ClusterSpec(num_nodes=8).node
        assert job.run_time < reference_time(cg, 16, spec)


class TestAlphaKnob:
    def test_strict_alpha_books_more_cache(self):
        """alpha=1.0 books near-full ways, limiting co-location."""
        cg = get_program("CG")
        strict = [Job(job_id=i, program=cg, procs=16, alpha=1.0)
                  for i in range(4)]
        res_strict = run_sns(clone_jobs(strict), nodes=4)
        loose = [Job(job_id=i, program=cg, procs=16, alpha=0.7)
                 for i in range(4)]
        res_loose = run_sns(clone_jobs(loose), nodes=4)
        strict_ways = [j.placement.dedicated_ways
                       for j in res_strict.finished_jobs]
        loose_ways = [j.placement.dedicated_ways
                      for j in res_loose.finished_jobs]
        assert min(strict_ways) > max(loose_ways)

    def test_loose_alpha_improves_throughput_on_tight_cluster(self):
        cg = get_program("CG")
        def batch(alpha):
            return [Job(job_id=i, program=cg, procs=16, alpha=alpha)
                    for i in range(6)]
        res_loose = run_sns(batch(0.7), nodes=4)
        res_strict = run_sns(batch(0.98), nodes=4)
        assert res_loose.throughput() >= res_strict.throughput()


class TestHeadlineNumbers:
    """A compact version of the paper's Section 6.2 claims."""

    def test_sns_beats_ce_across_seeds(self):
        from repro.scheduling.ce import CompactExclusiveScheduler

        cluster = ClusterSpec(num_nodes=8)
        gains = []
        for seed in range(5):
            jobs = random_sequence(seed=1000 + seed, n_jobs=20)
            sns = run_sns(clone_jobs(jobs))
            ce = Simulation(
                cluster, CompactExclusiveScheduler(cluster),
                clone_jobs(jobs), SimConfig(),
            ).run()
            gains.append(sns.throughput() / ce.throughput())
        assert sum(gains) / len(gains) > 1.05
        assert min(gains) > 0.95
