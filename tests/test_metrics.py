"""Metrics: means, time breakdowns, throughput, load balance."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.errors import ReproError
from repro.hardware.topology import ClusterSpec
from repro.metrics.balance import bandwidth_histogram, episode_variance
from repro.metrics.means import arithmetic_mean, geometric_mean
from repro.metrics.throughput import relative_throughput, scaling_ratio
from repro.profiling.database import ProfileDatabase
from repro.metrics.times import breakdown, normalized_runtimes, runtime_stats
from repro.scheduling.ce import CompactExclusiveScheduler
from repro.scheduling.cs import CompactShareScheduler
from repro.sim.job import Job
from repro.sim.runtime import Simulation


def run_jobs(jobs, nodes=2, policy_cls=CompactExclusiveScheduler,
             telemetry=False):
    cluster = ClusterSpec(num_nodes=nodes)
    return Simulation(cluster, policy_cls(cluster), jobs,
                      SimConfig(telemetry=telemetry)).run()


class TestMeans:
    def test_arithmetic(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_geometric(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_of_reciprocals_inverts(self):
        vals = [0.5, 2.0, 1.25]
        assert geometric_mean([1 / v for v in vals]) == pytest.approx(
            1 / geometric_mean(vals)
        )

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            arithmetic_mean([])
        with pytest.raises(ReproError):
            geometric_mean([])

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            geometric_mean([1.0, 0.0])


class TestTimes:
    def test_breakdown_identity(self):
        ep = get_program("EP")
        jobs = [Job(job_id=i, program=ep, procs=16) for i in range(3)]
        result = run_jobs(jobs, nodes=1)
        bd = breakdown(result)
        assert bd.turnaround == pytest.approx(bd.wait + bd.run)

    def test_normalized_runtimes_self_is_one(self):
        ep = get_program("EP")
        jobs = [Job(job_id=i, program=ep, procs=16) for i in range(2)]
        result = run_jobs(jobs)
        norm = normalized_runtimes(result, result)
        assert all(v == pytest.approx(1.0) for v in norm.values())

    def test_runtime_stats(self):
        stats = runtime_stats({0: 0.5, 1: 2.0})
        assert stats["geomean"] == pytest.approx(1.0)
        assert stats["max"] == 2.0
        assert stats["min"] == 0.5

    def test_missing_baseline_job_rejected(self):
        ep = get_program("EP")
        a = run_jobs([Job(job_id=0, program=ep, procs=16)])
        b = run_jobs([Job(job_id=9, program=ep, procs=16)])
        with pytest.raises(ReproError):
            normalized_runtimes(a, b)


class TestThroughput:
    def test_relative_throughput_sharing_beats_exclusive(self):
        hc = get_program("HC")
        def fresh():
            return [Job(job_id=i, program=hc, procs=14) for i in range(4)]
        ce = run_jobs(fresh(), nodes=1, policy_cls=CompactExclusiveScheduler)
        cs = run_jobs(fresh(), nodes=1, policy_cls=CompactShareScheduler)
        assert relative_throughput(cs, ce) > 1.2

    def test_scaling_ratio_empty_rejected(self):
        spec = ClusterSpec(num_nodes=8).node
        with pytest.raises(ReproError):
            scaling_ratio([], ProfileDatabase(), spec)


class TestBalance:
    def test_variance_and_histogram(self):
        mg = get_program("MG")
        jobs = [Job(job_id=i, program=mg, procs=16) for i in range(2)]
        result = run_jobs(jobs, nodes=2, telemetry=True)
        peak = ClusterSpec(num_nodes=2).node.peak_bw
        var = episode_variance(result, peak)
        assert 0.0 <= var <= 1.0
        edges, counts = bandwidth_histogram(result, peak, n_bins=10)
        assert len(edges) == 11
        assert counts.sum() > 0

    def test_telemetry_required(self):
        ep = get_program("EP")
        result = run_jobs([Job(job_id=0, program=ep, procs=16)])
        with pytest.raises(ReproError):
            episode_variance(result, 100.0)
