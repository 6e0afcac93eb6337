"""Simulator edge cases and failure injection."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.hardware.topology import ClusterSpec
from repro.scheduling.base import BaseScheduler
from repro.scheduling.ce import CompactExclusiveScheduler
from repro.scheduling.cs import CompactShareScheduler
from repro.scheduling.placement import split_procs
from repro.sim.job import Job, Placement
from repro.sim.runtime import Decision, Simulation

EP = get_program("EP")
MG = get_program("MG")


def run(jobs, nodes=2, policy_cls=CompactExclusiveScheduler, **sim_kwargs):
    cluster = ClusterSpec(num_nodes=nodes)
    config = SimConfig(**sim_kwargs)
    return Simulation(cluster, policy_cls(cluster), jobs, config).run()


class TestEdgeCases:
    def test_empty_job_list(self):
        result = run([])
        assert result.makespan == 0.0
        assert result.finished_jobs == []

    def test_tiny_work_multiplier(self):
        job = Job(job_id=0, program=EP, procs=16, work_multiplier=1e-6)
        result = run([job])
        assert job.run_time > 0
        assert result.makespan == pytest.approx(job.run_time)

    def test_huge_work_multiplier(self):
        job = Job(job_id=0, program=EP, procs=16, work_multiplier=1e4)
        run([job], max_sim_time=1e10)
        assert job.run_time == pytest.approx(200.0 * 1e4, rel=1e-6)

    def test_simultaneous_submissions_all_start(self):
        jobs = [Job(job_id=i, program=EP, procs=16, submit_time=100.0)
                for i in range(2)]
        run(jobs, nodes=2)
        assert all(j.start_time == pytest.approx(100.0) for j in jobs)

    def test_single_process_job(self):
        job = Job(job_id=0, program=get_program("HC"), procs=1)
        result = run([job], nodes=1, policy_cls=CompactShareScheduler)
        assert result.finished_jobs[0].run_time > 0

    def test_max_sim_time_guard(self):
        job = Job(job_id=0, program=EP, procs=16, work_multiplier=100.0)
        with pytest.raises(SimulationError, match="max_sim_time"):
            run([job], max_sim_time=10.0)

    def test_mean_turnaround_requires_finished_jobs(self):
        result = run([])
        with pytest.raises(SimulationError):
            result.mean_turnaround()


def _on_node(job, node):
    """An uncommitted proposal of ``job`` on one node."""
    chosen = [node]
    return Decision(job, Placement(chosen, split_procs(job.procs, chosen),
                                   20, 0.0), 1)


class _BrokenPolicy(BaseScheduler):
    """Policy that claims placements for jobs it was never given."""

    partitioned = False

    def propose(self, cluster, job, now):
        chosen = cluster.idle_nodes()[:1]
        if not chosen:
            return None
        return _on_node(Job(job_id=999, program=EP, procs=4), chosen[0])


class _DoublePlacePolicy(BaseScheduler):
    """Policy that returns two decisions for the same job."""

    partitioned = False

    def schedule_point(self, cluster, pending, now):
        return [self._commit(cluster, _on_node(job, start))
                for job in pending.head(1) for start in (0, 1)]

    def propose(self, cluster, job, now):  # pragma: no cover
        return None


class _UncommittedPolicy(CompactExclusiveScheduler):
    """Policy that returns CE's proposals without committing them."""

    def schedule_point(self, cluster, pending, now):
        return [self.propose(cluster, job, now)
                for job in pending.head(1)]


class TestFailureInjection:
    def test_ghost_placement_rejected(self):
        job = Job(job_id=0, program=EP, procs=16)
        with pytest.raises(SimulationError,
                           match="not pending|unknown job"):
            run([job], policy_cls=_BrokenPolicy)

    def test_double_placement_rejected(self):
        job = Job(job_id=0, program=EP, procs=16)
        with pytest.raises(SimulationError, match="twice"):
            run([job], policy_cls=_DoublePlacePolicy)

    def test_uncommitted_decision_rejected(self):
        job = Job(job_id=0, program=EP, procs=16)
        with pytest.raises(SimulationError, match="uncommitted decision"):
            run([job], policy_cls=_UncommittedPolicy)


class TestSchedulingPointOrdering:
    def test_finish_then_submit_same_instant(self):
        """A job finishing exactly when another is submitted frees its
        resources first (finish events order before submits)."""
        t = 200.0  # EP reference time
        first = Job(job_id=0, program=EP, procs=16, submit_time=0.0)
        second = Job(job_id=1, program=EP, procs=16, submit_time=t)
        run([first, second], nodes=1)
        assert second.start_time == pytest.approx(t)
        assert second.wait_time == pytest.approx(0.0)
