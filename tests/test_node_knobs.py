"""MBA enforcement and residual-sharing knobs at the simulation level."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SchedulerConfig, SimConfig
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.contention import Slice, arbitrate_node
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.cluster import ClusterState
from repro.sim.job import Job
from repro.sim.runtime import Simulation
from repro.workloads.sequences import clone_jobs

SPEC = NodeSpec()


def _one_node(**knobs) -> ClusterState:
    """A one-node partitioned cluster with the given node knobs."""
    return ClusterState(ClusterSpec(num_nodes=1, node=SPEC),
                        partitioned=True, **knobs)


def _place(cluster: ClusterState, job_id, program, procs, ways, bw):
    """Install one single-node slice; returns the node's contention
    solver slices."""
    cluster.place_slices([0], job_id, program, [procs], ways, bw, 1)
    return cluster.mixes.slices(cluster.mixes.mix.item(0),
                                cluster.share_residual, cluster.enforce_bw)


class TestBwCapArbitration:
    def test_cap_throttles_heavy_job(self):
        mg = get_program("MG")
        capped = Slice(1, mg, 16, 20.0, bw_cap=30.0)
        grants = arbitrate_node(SPEC, [capped])
        assert grants[1] == pytest.approx(30.0)

    def test_cap_above_demand_is_noop(self):
        ep = get_program("EP")
        s = Slice(1, ep, 8, 20.0, bw_cap=1000.0)
        uncapped = Slice(1, ep, 8, 20.0)
        assert arbitrate_node(SPEC, [s])[1] == pytest.approx(
            arbitrate_node(SPEC, [uncapped])[1]
        )

    def test_caps_protect_co_runner(self):
        mg = get_program("MG")
        hog = Slice(1, mg, 14, 10.0)
        victim = Slice(2, mg, 14, 10.0)
        free_grants = arbitrate_node(SPEC, [hog, victim])
        hog_capped = Slice(1, mg, 14, 10.0, bw_cap=20.0)
        capped_grants = arbitrate_node(SPEC, [hog_capped, victim])
        assert capped_grants[2] > free_grants[2]

    def test_negative_cap_rejected(self):
        from repro.errors import HardwareModelError
        with pytest.raises(HardwareModelError):
            Slice(1, get_program("EP"), 8, 20.0, bw_cap=-1.0)


class TestNodeKnobPlumbing:
    def test_enforce_bw_surfaces_in_slices(self):
        cluster = _one_node(enforce_bw=True)
        (s,) = _place(cluster, 1, get_program("MG"), 8, 4, 42.0)
        assert s.bw_cap == pytest.approx(42.0)

    def test_zero_booking_never_capped(self):
        cluster = _one_node(enforce_bw=True)
        (s,) = _place(cluster, 1, get_program("MG"), 8, 4, 0.0)
        assert s.bw_cap is None

    def test_no_enforcement_by_default(self):
        cluster = _one_node()
        (s,) = _place(cluster, 1, get_program("MG"), 8, 4, 42.0)
        assert s.bw_cap is None

    def test_share_residual_off_gives_dedicated_only(self):
        cluster = _one_node(share_residual=False)
        (s,) = _place(cluster, 1, get_program("CG"), 8, 10, 0.0)
        assert s.effective_ways == pytest.approx(10.0)
        assert cluster.arbitration(0)[3] == (s.effective_ways,)


class TestEndToEndKnobs:
    def _run(self, config):
        cluster = ClusterSpec(num_nodes=2)
        mg = get_program("MG")
        jobs = [Job(job_id=i, program=mg, procs=14) for i in range(2)]
        policy = SpreadNShareScheduler(cluster, config)
        result = Simulation(cluster, policy, clone_jobs(jobs),
                            SimConfig()).run()
        return result

    def test_mba_bounds_bandwidth_overdraw(self):
        """With enforcement, two co-located MG jobs cannot exceed their
        bookings, so each runs at most as fast as its booked share
        allows — and no slower than the estimation-only run."""
        free = self._run(SchedulerConfig(enforce_bw=False))
        hard = self._run(SchedulerConfig(enforce_bw=True))
        free_times = sorted(j.run_time for j in free.finished_jobs)
        hard_times = sorted(j.run_time for j in hard.finished_jobs)
        # Enforcement can only slow jobs down (grants are clipped)...
        for f, h in zip(free_times, hard_times):
            assert h >= f - 1e-6

    def test_residual_share_speeds_up_lone_job(self):
        cluster = ClusterSpec(num_nodes=1)
        cg = get_program("CG")
        def run(share):
            job = Job(job_id=0, program=cg, procs=16)
            policy = SpreadNShareScheduler(
                cluster, SchedulerConfig(share_residual=share)
            )
            Simulation(cluster, policy, [job],
                       SimConfig()).run()
            return job.run_time
        assert run(True) < run(False)
