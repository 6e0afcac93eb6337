"""Core-utilization telemetry channel."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.hardware.topology import ClusterSpec
from repro.scheduling.cs import CompactShareScheduler
from repro.sim.job import Job
from repro.sim.runtime import Simulation
from repro.obs.telemetry import TelemetryRecorder


class TestCoresChannel:
    def test_records_alongside_bandwidth(self):
        rec = TelemetryRecorder(num_nodes=1)
        rec.record(0, 0.0, 50.0, cores=14.0)
        rec.close(30.0)
        bw = rec.episode_matrix(30.0, 30.0, metric="bw")
        cores = rec.episode_matrix(30.0, 30.0, metric="cores")
        assert bw[0, 0] == pytest.approx(50.0)
        assert cores[0, 0] == pytest.approx(14.0)

    def test_cores_average_over_episode(self):
        rec = TelemetryRecorder(num_nodes=1)
        rec.record(0, 0.0, 0.0, cores=28.0)
        rec.record(0, 15.0, 0.0, cores=0.0)
        rec.close(30.0)
        cores = rec.episode_matrix(30.0, 30.0, metric="cores")
        assert cores[0, 0] == pytest.approx(14.0)

    def test_unknown_metric_rejected(self):
        rec = TelemetryRecorder(num_nodes=1)
        rec.record(0, 0.0, 0.0)
        rec.close(10.0)
        with pytest.raises(SimulationError):
            rec.episode_matrix(10.0, 10.0, metric="watts")

    def test_negative_cores_rejected(self):
        rec = TelemetryRecorder(num_nodes=1)
        with pytest.raises(SimulationError):
            rec.record(0, 0.0, 0.0, cores=-1.0)

    def test_runtime_populates_core_channel(self):
        cluster = ClusterSpec(num_nodes=1)
        hc = get_program("HC")
        jobs = [Job(job_id=i, program=hc, procs=14) for i in range(2)]
        result = Simulation(
            cluster, CompactShareScheduler(cluster), jobs,
            SimConfig(telemetry=True),
        ).run()
        cores = result.telemetry.episode_matrix(
            30.0, result.makespan, metric="cores"
        )
        # Both 14-process jobs run together: 28 busy cores at the start.
        assert cores[0, 0] == pytest.approx(28.0, abs=0.5)
        # ... and the node drains to idle by the end.
        assert cores[0, -1] <= 28.0
