"""Cluster state and the free-core index."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import AllocationError
from repro.hardware.topology import ClusterSpec
from repro.sim.cluster import ClusterState

EP = get_program("EP")


@pytest.fixture
def cluster() -> ClusterState:
    return ClusterState(ClusterSpec(num_nodes=4), partitioned=True)


class TestIndex:
    def test_fresh_cluster_all_idle(self, cluster):
        assert cluster.idle_nodes() == [0, 1, 2, 3]
        assert int(cluster.columns.free_cores.sum()) == 4 * 28
        assert cluster.free_levels(1) == [28]
        cluster.verify_index()

    def test_place_moves_bucket(self, cluster):
        cluster.place_slices([0], 1, EP, [8], 2, 0.0, 1)
        assert cluster.idle_nodes() == [1, 2, 3]
        assert cluster.node(0).free_cores == 20
        cluster.verify_index()

    def test_remove_restores_bucket(self, cluster):
        cluster.place_slices([0], 1, EP, [8], 2, 0.0, 1)
        cluster.remove_slices([0], 1)
        assert sorted(cluster.idle_nodes()) == [0, 1, 2, 3]
        cluster.verify_index()

    def test_groups_by_free_cores(self, cluster):
        cluster.place_slices([0], 1, EP, [8], 2, 0.0, 1)
        cluster.place_slices([1], 2, EP, [8], 2, 0.0, 1)
        cluster.place_slices([2], 3, EP, [4], 2, 0.0, 1)
        assert cluster.free_levels(1) == [28, 24, 20]
        assert cluster.bucket(20).tolist() == [0, 1]
        assert cluster.bucket(24).tolist() == [2]
        assert cluster.bucket(28).tolist() == [3]
        assert cluster.bucket(27).tolist() == []

    def test_groups_min_free_filter(self, cluster):
        cluster.place_slices([0], 1, EP, [27], 2, 0.0, 1)
        assert cluster.free_levels(1) == [28, 1]
        assert cluster.free_levels(2) == [28]  # node 0 has 1 free core

    def test_nodes_with_free_cores(self, cluster):
        cluster.place_slices([0], 1, EP, [28], 2, 0.0, 1)
        assert cluster.free_levels(0) == [28, 0]
        assert cluster.bucket(28).tolist() == [1, 2, 3]
        assert cluster.count_with_free_cores(1) == 3
        assert cluster.count_with_free_cores(0) == 4

    @pytest.mark.parametrize("width", [2, 9])
    def test_place_slices_rejects_malformed_batches(self, width):
        # A narrow and a wide batch (the index takes different paths).
        cluster = ClusterState(ClusterSpec(num_nodes=16), partitioned=True)
        nodes = list(range(width))
        with pytest.raises(AllocationError, match="names a node twice"):
            cluster.place_slices(nodes[:-1] + [0], 1, EP, [1] * width, 2,
                                 0.0, width)
        with pytest.raises(AllocationError, match="nodes and procs"):
            cluster.place_slices(nodes, 1, EP, [1] * (width + 1), 2, 0.0,
                                 width)
        with pytest.raises(AllocationError, match="names no nodes"):
            cluster.place_slices([], 1, EP, [], 2, 0.0, 0)
        cluster.verify_index()
        cluster.verify_columns()
        assert cluster.idle_count() == 16

    def test_place_slices_rejects_uneven_booking(self, cluster):
        # A job books the same ways and bandwidth on every node; a
        # second batch that disagrees is refused before any mutation.
        cluster.place_slices([0], 1, EP, [4], 2, 1.0, 2)
        with pytest.raises(AllocationError, match="same ways and bandwidth"):
            cluster.place_slices([1], 1, EP, [4], 2, 2.0, 2)
        with pytest.raises(AllocationError, match="same ways and bandwidth"):
            cluster.place_slices([1], 1, EP, [4], 3, 1.0, 2)
        assert cluster.node(1).is_idle
        cluster.verify_index()
        cluster.verify_columns()

    def test_failed_place_keeps_index_consistent(self, cluster):
        cluster.place_slices([0], 1, EP, [28], 2, 0.0, 1)
        with pytest.raises(Exception):
            cluster.place_slices([0], 2, EP, [4], 2, 0.0, 1)
        cluster.verify_index()


class TestResidentQueries:
    def test_resident_jobs_on(self, cluster):
        cluster.place_slices([0, 1], 1, EP, [4, 4], 2, 0.0, 2)
        cluster.place_slices([1], 2, EP, [4], 2, 0.0, 1)
        assert cluster.resident_jobs_on([0]) == {1}
        assert cluster.resident_jobs_on([1]) == {1, 2}
        assert cluster.resident_jobs_on([0, 1, 2]) == {1, 2}

    def test_partitioned_flag_propagates(self):
        shared = ClusterState(ClusterSpec(num_nodes=2), partitioned=False)
        assert all(not n.partitioned for n in shared.nodes)
        parted = ClusterState(ClusterSpec(num_nodes=2), partitioned=True)
        assert all(n.partitioned for n in parted.nodes)
