"""LLC geometry, and CAT way partitioning as the cluster keeps it: the
dedicated ways, partition limit and residual giveaway of one node,
installed through a one-node partitioned cluster."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import AllocationError, HardwareModelError
from repro.hardware.cache import CacheModel
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.sim.cluster import ClusterState


@pytest.fixture
def cache() -> CacheModel:
    return CacheModel()


def _node(cache: CacheModel) -> ClusterState:
    """A one-node cluster running CAT partitioning."""
    return ClusterState(ClusterSpec(num_nodes=1, node=NodeSpec(cache=cache)),
                        partitioned=True)


@pytest.fixture
def node(cache) -> ClusterState:
    return _node(cache)


def _allocate(node: ClusterState, job_id: int, ways: int) -> None:
    """Install a one-process slice dedicating ``ways`` ways."""
    node.place_slices([0], job_id, get_program("EP"), [1], ways, 0.0, 1)


def _free_ways(node: ClusterState) -> int:
    mixes = node.mixes
    return mixes.free_ways.item(mixes.mix.item(0))


def _allocated_ways(node: ClusterState) -> int:
    return int(node.gauge_columns()[2, 0])


def _can_allocate(node: ClusterState, ways: int) -> bool:
    """The mix-level demand test for a one-process slice of ``ways``."""
    mixes = node.mixes
    return bool(mixes.fits(1, ways, 0.0, 0.0, mixes.mix[0]))


def _effective_ways(node: ClusterState, job_id: int) -> float:
    """A resident job's dedicated plus residual ways, from the node's
    arbitration view (``ValueError`` when the job is not resident)."""
    jids, _, _, effs = node.arbitration(0)
    return effs[jids.index(job_id)]


class TestCacheModel:
    def test_reference_geometry(self, cache):
        assert cache.total_ways == 20
        assert cache.capacity_mb == pytest.approx(70.0)

    def test_mb_per_way(self, cache):
        assert cache.mb_per_way() == pytest.approx(3.5)

    def test_ways_to_mb_fractional(self, cache):
        assert cache.ways_to_mb(2.5) == pytest.approx(8.75)

    def test_ways_to_mb_rejects_negative(self, cache):
        with pytest.raises(HardwareModelError):
            cache.ways_to_mb(-1)

    @pytest.mark.parametrize("kwargs", [
        {"total_ways": 0},
        {"capacity_mb": 0},
        {"min_ways": 0},
        {"min_ways": 21},
        {"max_partitions": 0},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(HardwareModelError):
            CacheModel(**kwargs)


class TestLedgerAllocation:
    def test_fresh_ledger_all_free(self, node):
        assert _free_ways(node) == 20
        assert _allocated_ways(node) == 0

    def test_allocate_and_release(self, node):
        _allocate(node, 1, 5)
        assert _free_ways(node) == 15
        assert _allocated_ways(node) == 5
        node.remove_slices([0], 1)
        assert _free_ways(node) == 20

    def test_double_allocation_rejected(self, node):
        _allocate(node, 1, 5)
        with pytest.raises(AllocationError):
            _allocate(node, 1, 3)

    def test_sub_minimum_rejected(self, node):
        # Section 5.1: most programs need at least 2 ways.
        with pytest.raises(AllocationError, match="minimum is 2"):
            _allocate(node, 1, 1)

    def test_exhaustion_rejected(self, node):
        _allocate(node, 1, 18)
        with pytest.raises(AllocationError, match="only 2 free"):
            _allocate(node, 2, 3)

    def test_partition_limit(self):
        node = _node(CacheModel(total_ways=40, max_partitions=3,
                                capacity_mb=70.0))
        for jid in range(3):
            _allocate(node, jid, 2)
        assert not _can_allocate(node, 2)
        with pytest.raises(AllocationError, match="3 CAT partitions"):
            _allocate(node, 99, 2)

    def test_release_unknown_job_rejected(self, node):
        with pytest.raises(AllocationError):
            node.remove_slices([0], 42)

    def test_can_allocate_matches_allocate(self, node):
        _allocate(node, 1, 10)
        assert _can_allocate(node, 10)
        assert not _can_allocate(node, 11)
        # The minimum is range-checked by the placement itself.
        with pytest.raises(AllocationError):
            _allocate(node, 2, 1)
        _allocate(node, 2, 10)


class TestResidualSharing:
    """Unused ways are given away in equal shares (Section 4.4)."""

    def test_sole_job_gets_everything(self, node):
        _allocate(node, 1, 4)
        assert _effective_ways(node, 1) == pytest.approx(20.0)

    def test_two_jobs_split_residual(self, node):
        _allocate(node, 1, 4)
        _allocate(node, 2, 6)
        # 10 free ways, 5 bonus each.
        assert _effective_ways(node, 1) == pytest.approx(9.0)
        assert _effective_ways(node, 2) == pytest.approx(11.0)

    def test_reclaim_on_new_dispatch(self, node):
        _allocate(node, 1, 4)
        before = _effective_ways(node, 1)
        _allocate(node, 2, 14)
        after = _effective_ways(node, 1)
        assert after < before
        assert after == pytest.approx(5.0)

    def test_effective_ways_sum_to_total(self, node):
        _allocate(node, 1, 3)
        _allocate(node, 2, 5)
        _allocate(node, 3, 2)
        total = sum(_effective_ways(node, j) for j in (1, 2, 3))
        assert total == pytest.approx(20.0)

    def test_effective_capacity(self, node, cache):
        _allocate(node, 1, 10)
        # 10 dedicated + 10 residual = whole 70 MB.
        assert cache.ways_to_mb(_effective_ways(node, 1)) == \
            pytest.approx(70.0)

    def test_unknown_job_effective_ways_rejected(self, node):
        _allocate(node, 1, 4)
        with pytest.raises(ValueError):
            _effective_ways(node, 404)
