"""Network as a third managed/contended resource (Section 3.3 extension)."""

import pytest

from repro.apps.catalog import get_program
from repro.apps.curves import WorkingSetMissCurve
from repro.apps.program import CommModel, ProgramSpec
from repro.config import SchedulerConfig, SimConfig
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.contention import Slice, node_network_load
from repro.perfmodel.execution import NodeConditions, job_time
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.cluster import ClusterState
from repro.sim.job import Job, PendingQueue
from repro.sim.runtime import Simulation

SPEC = NodeSpec()


def chatty_program(net_coeff=0.5, name="CHAT") -> ProgramSpec:
    """A synthetic program that hammers the interconnect."""
    return ProgramSpec(
        name=name,
        framework="mpi",
        cpi_base=0.6,
        mpki_max=2.0,
        miss_curve=WorkingSetMissCurve(half_mb=1.0, floor=0.3),
        miss_latency=20.0,
        comm=CommModel(f_comm=0.10, net_coeff=net_coeff, net_lin=0.0),
        solo_time_16p=200.0,
    )


class TestNetworkLoad:
    def test_single_node_jobs_use_no_network(self):
        s = Slice(1, get_program("HC"), 16, 20.0, n_nodes=1)
        assert node_network_load(SPEC, [s]) == 0.0

    def test_multi_node_jobs_accumulate(self):
        chat = chatty_program(net_coeff=0.4)
        slices = [
            Slice(1, chat, 8, 10.0, n_nodes=2),
            Slice(2, chat, 8, 10.0, n_nodes=2),
        ]
        # network_fraction(2) = 0.4 * 0.5 = 0.2 each.
        assert node_network_load(SPEC, slices) == pytest.approx(0.4)

    def test_network_fraction_grows_with_nodes(self):
        chat = chatty_program(net_coeff=0.4)
        assert chat.comm.network_fraction(8) > chat.comm.network_fraction(2)
        assert chat.comm.network_fraction(1) == 0.0


class TestCongestionPhysics:
    def _conditions(self, procs, net_load):
        cap = SPEC.cache.ways_to_mb(20.0) / procs
        return NodeConditions(procs, cap, 50.0, net_load=net_load)

    def test_undersubscribed_link_has_no_effect(self):
        chat = chatty_program()
        base = job_time(chat, 16, [self._conditions(8, 0.0),
                                   self._conditions(8, 0.0)], SPEC)
        light = job_time(chat, 16, [self._conditions(8, 0.9),
                                    self._conditions(8, 0.9)], SPEC)
        assert light == pytest.approx(base)

    def test_oversubscribed_link_stretches_comm(self):
        chat = chatty_program()
        base = job_time(chat, 16, [self._conditions(8, 0.0),
                                   self._conditions(8, 0.0)], SPEC)
        congested = job_time(chat, 16, [self._conditions(8, 2.0),
                                        self._conditions(8, 2.0)], SPEC)
        assert congested > base

    def test_worst_node_governs(self):
        chat = chatty_program()
        one_hot = job_time(chat, 16, [self._conditions(8, 2.0),
                                      self._conditions(8, 0.0)], SPEC)
        both_hot = job_time(chat, 16, [self._conditions(8, 2.0),
                                       self._conditions(8, 2.0)], SPEC)
        assert one_hot == pytest.approx(both_hot)

    def test_negative_load_rejected(self):
        from repro.errors import HardwareModelError
        with pytest.raises(HardwareModelError):
            NodeConditions(8, 4.0, 10.0, net_load=-0.1)


class TestManagedNetworkScheduling:
    def test_booking_blocks_saturated_links(self):
        """With network management on, a job whose link demand does not
        fit next to existing bookings is refused; without management it
        is placed regardless."""
        chat = chatty_program(net_coeff=0.8)  # fraction(2) = 0.4
        cluster_spec = ClusterSpec(num_nodes=2)
        # 32 processes -> CE footprint of 2 nodes -> multi-node at k=1.
        job = Job(job_id=9, program=chat, procs=32)

        def try_place(manage):
            cluster = ClusterState(cluster_spec, partitioned=True)
            # resident chatty job: 0.7 link booked
            cluster.place_slices([0, 1], 1, chat, [4, 4], 2, 1.0, 2, 0.7)
            config = SchedulerConfig(manage_network=manage)
            policy = SpreadNShareScheduler(cluster_spec, config)
            return policy.schedule_point(cluster, PendingQueue([job]), 0.0)

        assert try_place(manage=False)  # placed: network invisible
        job2 = Job(job_id=9, program=chat, procs=32)
        cluster = ClusterState(cluster_spec, partitioned=True)
        cluster.place_slices([0, 1], 1, chat, [4, 4], 2, 1.0, 2, 0.7)
        policy = SpreadNShareScheduler(
            cluster_spec, SchedulerConfig(manage_network=True)
        )
        assert policy.schedule_point(cluster, PendingQueue([job2]), 0.0) == []

    def test_unmanaged_network_books_nothing(self):
        cluster_spec = ClusterSpec(num_nodes=4)
        policy = SpreadNShareScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=True)
        jobs = [Job(job_id=0, program=get_program("CG"), procs=16)]
        (d,) = policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.placement.booked_net == 0.0

    def test_node_network_accounting(self):
        node_cluster = ClusterState(ClusterSpec(num_nodes=1),
                                    partitioned=True)
        node_cluster.place_slices([0], 1, chatty_program(), [8], 4, 10.0, 2,
                                  0.3)
        mixes = node_cluster.mixes
        m = mixes.mix[0]
        assert mixes.booked_net[m] == pytest.approx(0.3)
        assert 1.0 - mixes.booked_net[m] == pytest.approx(0.7)
        assert mixes.fits(4, 2, 0.0, 0.7)[m]
        assert not mixes.fits(4, 2, 0.0, 0.8)[m]

    def test_end_to_end_with_managed_network(self):
        """A full simulation with network management stays consistent."""
        cluster = ClusterSpec(num_nodes=4)
        config = SchedulerConfig(manage_network=True)
        jobs = [
            Job(job_id=i, program=get_program(name), procs=16)
            for i, name in enumerate(("CG", "MG", "NW", "EP"))
        ]
        policy = SpreadNShareScheduler(cluster, config)
        result = Simulation(cluster, policy, jobs,
                            SimConfig()).run()
        assert len(result.finished_jobs) == 4
