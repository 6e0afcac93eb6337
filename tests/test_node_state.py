"""Runtime node state: core/way/bandwidth accounting."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import AllocationError
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.sim.cluster import ClusterState
from repro.sim.node import NodeState

SPEC = NodeSpec()


# Slices are installed through a one-node cluster (the batched
# place/remove path); the tests read the node's state through its view.
@pytest.fixture
def cluster() -> ClusterState:
    return ClusterState(ClusterSpec(num_nodes=1, node=SPEC),
                        partitioned=True)


@pytest.fixture
def shared() -> ClusterState:
    return ClusterState(ClusterSpec(num_nodes=1, node=SPEC),
                        partitioned=False)


@pytest.fixture
def node(cluster) -> NodeState:
    return cluster.node(0)


@pytest.fixture
def shared_node(shared) -> NodeState:
    return shared.node(0)


class TestAccounting:
    def test_fresh_node_idle(self, node):
        assert node.is_idle
        assert node.free_cores == 28
        assert node.free_ways == 20
        assert node.free_bw == pytest.approx(SPEC.peak_bw)

    def test_place_deducts_resources(self, cluster, node):
        cluster.place_slices([0], 1, get_program("MG"), [8], 4, 30.0, 2)
        assert node.free_cores == 20
        assert node.free_ways == 16
        assert node.free_bw == pytest.approx(SPEC.peak_bw - 30.0)
        assert not node.is_idle

    def test_remove_restores_resources(self, cluster, node):
        cluster.place_slices([0], 1, get_program("MG"), [8], 4, 30.0, 2)
        cluster.remove_slices([0], 1)
        assert node.is_idle
        assert node.free_ways == 20
        assert node.free_bw == pytest.approx(SPEC.peak_bw)

    def test_double_place_rejected(self, cluster, node):
        cluster.place_slices([0], 1, get_program("EP"), [4], 2, 0.0, 1)
        with pytest.raises(AllocationError):
            cluster.place_slices([0], 1, get_program("EP"), [4], 2, 0.0, 1)

    def test_remove_absent_rejected(self, cluster, node):
        with pytest.raises(AllocationError):
            cluster.remove_slices([0], 7)

    def test_core_overflow_rejected(self, cluster, node):
        cluster.place_slices([0], 1, get_program("EP"), [20], 2, 0.0, 1)
        with pytest.raises(AllocationError):
            cluster.place_slices([0], 2, get_program("EP"), [10], 2, 0.0, 1)


def _fits(node, cores, ways, bw, net=0.0) -> bool:
    """The mix-level demand test at the node's mix."""
    return bool(node.mixes.fits(cores, ways, bw, net)[node.mix])


def _effective_ways(cluster, job_id) -> float:
    """A resident job's effective LLC ways on node 0, from its view."""
    jids, _, _, effs = cluster.arbitration(0)
    return effs[jids.index(job_id)]


class TestCanHost:
    def test_fits(self, node):
        assert _fits(node, 28, 20, SPEC.peak_bw)

    def test_core_bound(self, node):
        assert not _fits(node, 29, 2, 0.0)

    def test_way_bound(self, cluster, node):
        cluster.place_slices([0], 1, get_program("CG"), [8], 15, 10.0, 1)
        assert not _fits(node, 4, 6, 0.0)
        assert _fits(node, 4, 5, 0.0)

    def test_bandwidth_bound(self, cluster, node):
        cluster.place_slices([0], 1, get_program("MG"), [16], 2, 100.0, 1)
        assert not _fits(node, 4, 2, 30.0)
        assert _fits(node, 4, 2, 10.0)

    def test_unpartitioned_ignores_ways(self, shared_node):
        assert _fits(shared_node, 4, 0, 0.0)


class TestEffectiveWays:
    def test_partitioned_residual_share(self, cluster, node):
        cluster.place_slices([0], 1, get_program("CG"), [8], 10, 10.0, 1)
        cluster.place_slices([0], 2, get_program("EP"), [8], 2, 0.1, 1)
        # 8 free ways -> +4 each.
        assert _effective_ways(cluster, 1) == pytest.approx(14.0)
        assert _effective_ways(cluster, 2) == pytest.approx(6.0)

    def test_unpartitioned_proportional_share(self, shared, shared_node):
        shared.place_slices([0], 1, get_program("CG"), [12], 0, 0.0, 1)
        shared.place_slices([0], 2, get_program("EP"), [4], 0, 0.0, 1)
        assert _effective_ways(shared, 1) == pytest.approx(15.0)
        assert _effective_ways(shared, 2) == pytest.approx(5.0)

    def test_absent_job_rejected(self, cluster, node):
        cluster.place_slices([0], 1, get_program("CG"), [8], 10, 10.0, 1)
        with pytest.raises(ValueError):
            _effective_ways(cluster, 3)


class TestOccupancyMetric:
    def test_idle_node_is_zero(self, node):
        assert node.mixes.occupancy(2.0)[node.mix] == 0.0

    def test_beta_weights_ways(self, cluster, node):
        cluster.place_slices([0], 1, get_program("CG"), [14], 10, 0.0, 1)
        # Co = 0.5, Wo = 0.5, Bo = 0.
        assert node.mixes.occupancy(2.0)[node.mix] == pytest.approx(1.5)
        assert node.mixes.occupancy(0.0)[node.mix] == pytest.approx(0.5)

    def test_bandwidth_term_clamped(self, cluster, node):
        cluster.place_slices([0], 1, get_program("MG"), [14], 2,
                             SPEC.peak_bw * 2, 1)
        metric = node.mixes.occupancy(0.0)[node.mix]
        assert metric == pytest.approx(0.5 + 1.0)


class TestSlices:
    def test_slices_reflect_residents(self, cluster, node):
        cluster.place_slices([0], 1, get_program("MG"), [8], 4, 30.0, 2)
        cluster.place_slices([0], 2, get_program("EP"), [4], 2, 0.1, 1)
        slices = {s.job_id: s for s in cluster.mixes.slices(
            node.mix, cluster.share_residual, cluster.enforce_bw)}
        assert slices[1].procs == 8
        assert slices[1].n_nodes == 2
        assert slices[1].effective_ways == _effective_ways(cluster, 1)
        assert slices[2].program.name == "EP"

    def test_dedicated_ways_partitioned(self, cluster, node):
        cluster.place_slices([0], 1, get_program("CG"), [8], 10, 0.0, 1)
        assert node.dedicated_ways(1) == 10

    def test_dedicated_ways_unpartitioned_zero(self, shared, shared_node):
        shared.place_slices([0], 1, get_program("CG"), [8], 10, 0.0, 1)
        assert shared_node.dedicated_ways(1) == 0
