"""Job lifecycle and progress integration."""

import numpy as np
import pytest

from repro.apps.catalog import get_program
from repro.errors import SimulationError
from repro.sim.job import Job, JobState, Placement


def make_job(**kwargs) -> Job:
    defaults = dict(job_id=1, program=get_program("EP"), procs=16)
    defaults.update(kwargs)
    return Job(**defaults)


def make_placement(n_nodes=1, procs=16) -> Placement:
    per_node, extra = divmod(procs, n_nodes)
    return Placement(
        nodes=np.arange(n_nodes),
        procs=[per_node + (1 if i < extra else 0) for i in range(n_nodes)],
        dedicated_ways=4,
        booked_bw=1.0,
    )


class TestLifecycle:
    def test_initial_state(self):
        job = make_job()
        assert job.state is JobState.PENDING
        assert job.start_time is None

    def test_begin_to_finish(self):
        job = make_job()
        job.begin(10.0, total_work=100.0, placement=make_placement(),
                  scale_factor=1)
        assert job.state is JobState.RUNNING
        job.set_speed(1.0)
        job.settle_progress(110.0)
        assert job.remaining_work == pytest.approx(0.0)
        job.complete(110.0)
        assert job.state is JobState.FINISHED
        assert job.wait_time == 10.0
        assert job.run_time == 100.0
        assert job.turnaround_time == 110.0

    def test_double_begin_rejected(self):
        job = make_job()
        job.begin(0.0, 10.0, make_placement(), 1)
        with pytest.raises(SimulationError):
            job.begin(1.0, 10.0, make_placement(), 1)

    def test_complete_requires_running(self):
        with pytest.raises(SimulationError):
            make_job().complete(0.0)

    def test_times_unavailable_before_events(self):
        job = make_job()
        with pytest.raises(SimulationError):
            _ = job.wait_time
        with pytest.raises(SimulationError):
            _ = job.run_time


class TestProgress:
    def test_speed_scales_progress(self):
        job = make_job()
        job.begin(0.0, 100.0, make_placement(), 1)
        job.set_speed(2.0)
        job.settle_progress(25.0)
        assert job.remaining_work == pytest.approx(50.0)
        assert job.projected_finish() == pytest.approx(50.0)

    def test_speed_change_midway(self):
        job = make_job()
        job.begin(0.0, 100.0, make_placement(), 1)
        job.set_speed(1.0)
        job.settle_progress(50.0)
        job.set_speed(0.5)
        assert job.projected_finish() == pytest.approx(150.0)

    def test_progress_clamped_at_zero(self):
        job = make_job()
        job.begin(0.0, 10.0, make_placement(), 1)
        job.set_speed(100.0)
        job.settle_progress(1000.0)
        assert job.remaining_work == 0.0

    def test_time_backwards_rejected(self):
        job = make_job()
        job.begin(10.0, 10.0, make_placement(), 1)
        job.set_speed(1.0)
        with pytest.raises(SimulationError):
            job.settle_progress(5.0)

    def test_nonpositive_speed_rejected(self):
        job = make_job()
        job.begin(0.0, 10.0, make_placement(), 1)
        with pytest.raises(SimulationError):
            job.set_speed(0.0)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"procs": 0},
        {"submit_time": -1.0},
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"work_multiplier": 0.0},
    ])
    def test_bad_job_params(self, kwargs):
        with pytest.raises(SimulationError):
            make_job(**kwargs)

    def test_placement_consistency(self):
        with pytest.raises(SimulationError, match="nodes and proc map"):
            Placement(nodes=[0, 1], procs=[8],
                      dedicated_ways=2, booked_bw=0.0)
        with pytest.raises(SimulationError, match="at least one node"):
            Placement(nodes=[], procs=[],
                      dedicated_ways=2, booked_bw=0.0)
        with pytest.raises(SimulationError, match="must be positive"):
            Placement(nodes=[0], procs=[0],
                      dedicated_ways=2, booked_bw=0.0)

    def test_placement_array_validation(self):
        # The array form keeps every check and message: an empty
        # placement, misaligned arrays (length or shape), and a
        # non-positive count anywhere in the procs array.
        cases = [
            (np.empty(0, np.int64), np.empty(0, np.int64),
             "placement must cover at least one node"),
            (np.arange(3), np.full(2, 4),
             "placement nodes and proc map disagree"),
            (np.arange(2), np.full((2, 1), 4),
             "placement nodes and proc map disagree"),
            (np.arange(3), np.array([4, -1, 4]),
             "per-node process counts must be positive"),
            (np.arange(3), np.array([4, 4, 0]),
             "per-node process counts must be positive"),
        ]
        for nodes, procs, message in cases:
            with pytest.raises(SimulationError) as info:
                Placement(nodes, procs, dedicated_ways=2, booked_bw=0.0)
            assert str(info.value) == message

    def test_placement_totals(self):
        p = make_placement(n_nodes=4, procs=30)
        assert p.n_nodes == 4
        assert p.total_procs == 30
        assert p.nodes.dtype == p.procs.dtype == np.int64

    def test_placement_derived_views(self):
        p = Placement(np.array([5, 2, 9]), np.array([3, 3, 2]), 4, 1.0)
        assert p.node_ids == (5, 2, 9)
        assert p.procs_per_node == {5: 3, 2: 3, 9: 2}
        assert all(type(n) is int for n in p.node_ids)
        assert p == Placement([5, 2, 9], [3, 3, 2], 4, 1.0)
        assert p != Placement([2, 5, 9], [3, 3, 2], 4, 1.0)
        assert p != Placement([5, 2, 9], [3, 3, 2], 4, 2.0)
