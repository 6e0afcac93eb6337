"""Cluster state and the free-core index."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import AllocationError
from repro.hardware.cache import CacheModel
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.sim.cluster import ClusterState
from repro.sim.job import Job
from tests.against_oracle import assert_matches_oracle, fast_core

EP = get_program("EP")


@pytest.fixture
def cluster() -> ClusterState:
    return ClusterState(ClusterSpec(num_nodes=4), partitioned=True)


class TestIndex:
    def test_fresh_cluster_all_idle(self, cluster):
        assert cluster.idle_nodes() == [0, 1, 2, 3]
        assert cluster.gauge_columns()[0].sum() == 4 * 28
        assert cluster.free_levels(1) == [28]
        cluster.verify_index()

    def test_place_moves_bucket(self, cluster):
        cluster.place_slices([0], 1, EP, [8], 2, 0.0, 1)
        assert cluster.idle_nodes() == [1, 2, 3]
        assert cluster.gauge_columns()[0, 0] == 20
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

    @pytest.mark.parametrize("width", [2, 9, 33, 1000])
    def test_place_slices_rejects_malformed_batches(self, width):
        # Narrow and wide batches: the index splits at 8 nodes, the
        # duplicate check and the group-by at 32.
        size = max(16, width + 8)
        cluster = ClusterState(ClusterSpec(num_nodes=size), partitioned=True)
        cluster.place_slices([size - 1], 7, EP, [4], 2, 0.0, 1)
        before = self._state(cluster), cluster.idle_nodes()
        nodes = list(range(width))
        # The last node repeats one a third of the way in.
        with pytest.raises(AllocationError, match="names a node twice"):
            cluster.place_slices(nodes[:-1] + [nodes[width // 3]], 1, EP,
                                 [1] * width, 2, 0.0, width)
        with pytest.raises(AllocationError, match="nodes and procs"):
            cluster.place_slices(nodes, 1, EP, [1] * (width + 1), 2, 0.0,
                                 width)
        with pytest.raises(AllocationError, match="names no nodes"):
            cluster.place_slices([], 1, EP, [], 2, 0.0, 0)
        cluster.verify_index()
        cluster.verify_columns()
        assert (self._state(cluster), cluster.idle_nodes()) == before
        assert cluster.idle_count() == size - 1

    def test_place_slices_rejects_uneven_booking(self, cluster):
        # A job books the same ways and bandwidth on every node; a
        # second batch that disagrees is refused before any mutation.
        cluster.place_slices([0], 1, EP, [4], 2, 1.0, 2)
        with pytest.raises(AllocationError, match="same ways and bandwidth"):
            cluster.place_slices([1], 1, EP, [4], 2, 2.0, 2)
        with pytest.raises(AllocationError, match="same ways and bandwidth"):
            cluster.place_slices([1], 1, EP, [4], 3, 1.0, 2)
        assert not cluster.resident_jobs_on([1])
        cluster.verify_index()
        cluster.verify_columns()

    def test_place_slices_rejects_uneven_network_booking(self, cluster):
        cluster.place_slices([0], 1, EP, [4], 2, 1.0, 2, net=0.25)
        with pytest.raises(AllocationError, match="same network share"):
            cluster.place_slices([1], 1, EP, [4], 2, 1.0, 2, net=0.5)
        with pytest.raises(AllocationError, match="same network share"):
            cluster.place_slices([1], 1, EP, [4], 2, 1.0, 2)
        assert not cluster.resident_jobs_on([1])
        cluster.verify_index()
        cluster.verify_columns()

    @staticmethod
    def _state(cluster):
        mixes = cluster.mixes
        return ([getattr(mixes, name)[mixes.mix].tolist() for name in (
                    "free_cores", "free_ways", "parts", "booked_bw",
                    "booked_net", "bw_eps", "net_eps")]
                + [cluster.booked_cross.tolist()],
                mixes.mix.tolist(), list(mixes.keys),
                {j: dict(h) for j, h in mixes.held.items()},
                dict(mixes.meta))

    @pytest.mark.parametrize("order,message", [
        ([0, 2, 1, 3], "node 2 has 2 free cores; 10 requested"),
        ([3, 1, 2, 0], "node 1 has 8 free cores; 10 requested"),
    ])
    def test_failed_batch_over_several_mixes(self, order, message):
        """A failing batch spanning several mixes names the first
        offending node in batch order and changes nothing."""
        cluster = ClusterState(ClusterSpec(num_nodes=4), partitioned=True)
        cluster.place_slices([1], 1, EP, [20], 2, 1.0, 1)
        cluster.place_slices([2], 2, EP, [26], 2, 0.5, 1)
        cluster.place_slices([3], 3, EP, [4], 2, 0.0, 1)
        before = self._state(cluster)
        with pytest.raises(AllocationError, match=message):
            cluster.place_slices(order, 4, EP, [10] * 4, 2, 1.0, 4)
        assert self._state(cluster) == before
        cluster.verify_columns()
        cluster.verify_index()

    def test_failed_batch_error_precedence(self):
        """"Already on node" outranks a capacity failure earlier in the
        batch, and more processes than a node has cores fail as that
        node's capacity error."""
        cluster = ClusterState(ClusterSpec(num_nodes=4), partitioned=True)
        cluster.place_slices([3], 1, EP, [4], 2, 0.0, 2)
        cluster.place_slices([0], 2, EP, [27], 2, 0.0, 1)
        before = self._state(cluster)
        with pytest.raises(AllocationError, match="already on node 3"):
            cluster.place_slices([0, 3], 1, EP, [4, 4], 2, 0.0, 2)
        with pytest.raises(AllocationError, match="node 0 has 1 free"):
            cluster.place_slices([1, 0], 9, EP, [4, 29], 2, 0.0, 2)
        assert self._state(cluster) == before
        cluster.verify_columns()

    def test_failed_batch_checks_partitions_then_ways(self):
        node = NodeSpec(cache=CacheModel(max_partitions=2))
        cluster = ClusterState(ClusterSpec(num_nodes=3, node=node),
                               partitioned=True)
        cluster.place_slices([1, 2], 1, EP, [1, 1], 8, 0.0, 2)
        cluster.place_slices([2], 2, EP, [1], 8, 0.0, 1)
        before = self._state(cluster)
        # Node 1 lacks ways, node 2 partitions: batch order decides.
        with pytest.raises(AllocationError, match="only 12 free"):
            cluster.place_slices([0, 1, 2], 3, EP, [1] * 3, 13, 0.0, 3)
        with pytest.raises(AllocationError, match="2 CAT partitions"):
            cluster.place_slices([0, 2, 1], 3, EP, [1] * 3, 13, 0.0, 3)
        assert self._state(cluster) == before
        cluster.verify_columns()
        cluster.verify_index()

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

    @staticmethod
    def _scanned(cluster, nodes, job_id):
        """The co-runners of ``job_id`` as a row-by-row column scan of
        its shared nodes builds them, insertion sequence included."""
        mixes = cluster.mixes
        rows = [[j for j, _ in mixes.keys[mixes.mix[n]]] for n in nodes]
        found = set(j for row in rows if len(row) > 1 for j in row)
        found.discard(job_id)
        return found

    def test_corunners_of_place_and_remove(self, cluster):
        first = cluster.place_slices([0, 1], 1, EP, [4, 4], 2, 0.0, 2)
        second = cluster.place_slices([1, 2], 2, EP, [4, 4], 2, 0.0, 2)
        third = cluster.place_slices([0, 1, 3], 3, EP, [4, 4, 4], 2, 0.0, 3)
        assert (first, second, third) == (set(), {1}, {1, 2})
        # Each placement returns a set of its own, which later
        # placements never touch: a committed decision keeps it.
        assert first | second | third == {1, 2}
        assert len({id(first), id(second), id(third)}) == 3
        assert cluster.remove_slices([1, 2], 2) == {1, 3}
        assert cluster.remove_slices([0, 1, 3], 3) == {1}
        assert cluster.remove_slices([0, 1], 1) == set()
        cluster.verify_columns()

    def test_wide_removal_keeps_scan_order(self):
        """A removal over more nodes than the short path groups lists
        its prior mixes by id; the co-runner set must still be filled in
        node order, since a set's iteration order depends on it."""
        wide = ClusterState(ClusterSpec(num_nodes=64), partitioned=False)
        # Job 1's mix is interned before job 2's, but job 2 sits on the
        # lower node; ids 1 and 9 collide in a small set's table.
        wide.place_slices([50], 1, EP, [4], 0, 0.0, 1)
        wide.place_slices([10], 2, EP, [4], 0, 0.0, 1)
        nodes = list(range(64))
        wide.place_slices(nodes, 9, EP, [4] * 64, 0, 0.0, 64)
        expect = self._scanned(wide, nodes, 9)
        got = wide.remove_slices(nodes, 9)
        assert got == expect == {1, 2}
        assert list(got) == list(expect)
        wide.verify_columns()

    def test_partitioned_flag_propagates(self):
        shared = ClusterState(ClusterSpec(num_nodes=2), partitioned=False)
        assert not shared.mixes.partitioned
        parted = ClusterState(ClusterSpec(num_nodes=2), partitioned=True)
        assert parted.mixes.partitioned


class TestDeepResidency:
    """A node holds as many residents as its cores allow, with no
    per-slot plane to outgrow: CS stacks one-process jobs on one node
    faster than they finish.  After every place and remove the columns
    equal a from-scratch recompute from the node's mix key and the
    per-job bookings (``verify_columns``), and the oracle replays the
    run's decisions and speeds."""

    #: One-process jobs, arriving faster than they finish, so CS stacks
    #: them on the one node while earlier ones leave.
    JOBS = 16

    def _run(self):
        jobs = [
            Job(job_id=i, program=EP, procs=1, submit_time=400.0 * i,
                work_multiplier=(0.5, 1.5, 0.8)[i % 3])
            for i in range(self.JOBS)
        ]
        sim = fast_core("CS", ClusterSpec(num_nodes=1), jobs)
        cluster = sim.cluster
        ops = []

        def checked(name):
            original = getattr(cluster, name)

            def wrapped(nodes, job_id, *args, **kwargs):
                out = original(nodes, job_id, *args, **kwargs)
                cluster.verify_columns()
                cluster.verify_index()
                mixes = cluster.mixes
                ops.append((name, max(len(mixes.keys[m])
                                      for m in mixes.mix.tolist()),
                            mixes.mix.tolist()))
                return out
            setattr(cluster, name, wrapped)

        checked("place_slices")
        checked("remove_slices")
        result, oracle = assert_matches_oracle(sim)
        assert [(j.job_id, j.start_time, j.finish_time)
                for j in result.jobs] == \
            [(j.job_id, j.start_time, j.finish_time) for j in oracle.jobs]
        return ops

    def test_stacked_residents_match_reference(self):
        ops = self._run()
        # The premise: the node held several residents at once, places
        # and removals interleave, and freed mix ids came back.
        assert max(top for _, top, _ in ops) >= 4
        names = [name for name, _, _ in ops]
        first_remove = names.index("remove_slices")
        assert "place_slices" in names[first_remove:]
        mix_ids = [mids[0] for _, _, mids in ops]
        assert len(mix_ids) > len(set(mix_ids))

    def test_recycled_mix_id_takes_a_fresh_row(self, cluster):
        """A freed mix id re-interned for another key must not keep the
        old key's entries: the arrays must match a from-scratch recompute."""
        cluster.place_slices([0], 1, EP, [4], 2, 1.5, 1, net=0.25)
        mixes = cluster.mixes
        old = mixes.mix[0]
        assert mixes.free_cores[old] == 24
        cluster.remove_slices([0], 1)
        assert old in mixes.free
        cluster.place_slices([1], 2, EP, [9], 3, 0.5, 1)
        assert mixes.mix[1] == old
        assert mixes.free_cores[old] == 19
        assert mixes.booked_bw[old] == 0.5
        assert mixes.booked_net[old] == 0.0
        cluster.verify_columns()




# -- one node's accounting ----------------------------------------------
#
# Slices are installed through a one-node cluster; node 0's state is
# read through the cluster's queries: the gauge matrix (free cores,
# booked GB/s, allocated ways, residents), the per-mix arrays at its mix
# id, and its resident jobs.

SPEC = NodeSpec()


@pytest.fixture
def one_node() -> ClusterState:
    return ClusterState(ClusterSpec(num_nodes=1, node=SPEC),
                        partitioned=True)


@pytest.fixture
def one_shared() -> ClusterState:
    return ClusterState(ClusterSpec(num_nodes=1, node=SPEC),
                        partitioned=False)


class TestAccounting:
    def test_fresh_node_idle(self, one_node):
        free, booked, alloc, _ = one_node.gauge_columns()[:, 0]
        assert not one_node.resident_jobs_on([0])
        assert free == 28
        assert SPEC.llc_ways - alloc == 20
        assert SPEC.peak_bw - booked == pytest.approx(SPEC.peak_bw)

    def test_place_deducts_resources(self, one_node):
        one_node.place_slices([0], 1, get_program("MG"), [8], 4, 30.0, 2)
        free, booked, alloc, _ = one_node.gauge_columns()[:, 0]
        assert free == 20
        assert SPEC.llc_ways - alloc == 16
        assert SPEC.peak_bw - booked == pytest.approx(SPEC.peak_bw - 30.0)
        assert one_node.resident_jobs_on([0])

    def test_remove_restores_resources(self, one_node):
        one_node.place_slices([0], 1, get_program("MG"), [8], 4, 30.0, 2)
        one_node.remove_slices([0], 1)
        _, booked, alloc, _ = one_node.gauge_columns()[:, 0]
        assert not one_node.resident_jobs_on([0])
        assert SPEC.llc_ways - alloc == 20
        assert SPEC.peak_bw - booked == pytest.approx(SPEC.peak_bw)

    def test_double_place_rejected(self, one_node):
        one_node.place_slices([0], 1, get_program("EP"), [4], 2, 0.0, 1)
        with pytest.raises(AllocationError):
            one_node.place_slices([0], 1, get_program("EP"), [4], 2, 0.0, 1)

    def test_remove_absent_rejected(self, one_node):
        with pytest.raises(AllocationError):
            one_node.remove_slices([0], 7)

    def test_core_overflow_rejected(self, one_node):
        one_node.place_slices([0], 1, get_program("EP"), [20], 2, 0.0, 1)
        with pytest.raises(AllocationError):
            one_node.place_slices([0], 2, get_program("EP"), [10], 2, 0.0, 1)


def _fits(cluster, cores, ways, bw, net=0.0) -> bool:
    """The mix-level demand test at node 0's mix."""
    mixes = cluster.mixes
    return bool(mixes.fits(cores, ways, bw, net, mixes.mix[0]))


def _effective_ways(cluster, job_id) -> float:
    """A resident job's effective LLC ways on node 0, from its view."""
    jids, _, _, effs = cluster.arbitration(0)
    return effs[jids.index(job_id)]


class TestCanHost:
    def test_fits(self, one_node):
        assert _fits(one_node, 28, 20, SPEC.peak_bw)

    def test_core_bound(self, one_node):
        assert not _fits(one_node, 29, 2, 0.0)

    def test_way_bound(self, one_node):
        one_node.place_slices([0], 1, get_program("CG"), [8], 15, 10.0, 1)
        assert not _fits(one_node, 4, 6, 0.0)
        assert _fits(one_node, 4, 5, 0.0)

    def test_bandwidth_bound(self, one_node):
        one_node.place_slices([0], 1, get_program("MG"), [16], 2, 100.0, 1)
        assert not _fits(one_node, 4, 2, 30.0)
        assert _fits(one_node, 4, 2, 10.0)

    def test_unpartitioned_ignores_ways(self, one_shared):
        assert _fits(one_shared, 4, 0, 0.0)


class TestEffectiveWays:
    def test_partitioned_residual_share(self, one_node):
        one_node.place_slices([0], 1, get_program("CG"), [8], 10, 10.0, 1)
        one_node.place_slices([0], 2, get_program("EP"), [8], 2, 0.1, 1)
        # 8 free ways -> +4 each.
        assert _effective_ways(one_node, 1) == pytest.approx(14.0)
        assert _effective_ways(one_node, 2) == pytest.approx(6.0)

    def test_unpartitioned_proportional_share(self, one_shared):
        one_shared.place_slices([0], 1, get_program("CG"), [12], 0, 0.0, 1)
        one_shared.place_slices([0], 2, get_program("EP"), [4], 0, 0.0, 1)
        assert _effective_ways(one_shared, 1) == pytest.approx(15.0)
        assert _effective_ways(one_shared, 2) == pytest.approx(5.0)

    def test_absent_job_rejected(self, one_node):
        one_node.place_slices([0], 1, get_program("CG"), [8], 10, 10.0, 1)
        with pytest.raises(ValueError):
            _effective_ways(one_node, 3)


class TestOccupancyMetric:
    def test_idle_node_is_zero(self, one_node):
        mixes = one_node.mixes
        assert mixes.occupancy(2.0)[mixes.mix[0]] == 0.0

    def test_beta_weights_ways(self, one_node):
        one_node.place_slices([0], 1, get_program("CG"), [14], 10, 0.0, 1)
        mixes = one_node.mixes
        # Co = 0.5, Wo = 0.5, Bo = 0.
        assert mixes.occupancy(2.0)[mixes.mix[0]] == pytest.approx(1.5)
        assert mixes.occupancy(0.0)[mixes.mix[0]] == pytest.approx(0.5)

    def test_bandwidth_term_clamped(self, one_node):
        one_node.place_slices([0], 1, get_program("MG"), [14], 2,
                              SPEC.peak_bw * 2, 1)
        mixes = one_node.mixes
        metric = mixes.occupancy(0.0)[mixes.mix[0]]
        assert metric == pytest.approx(0.5 + 1.0)


class TestSlices:
    def test_slices_reflect_residents(self, one_node):
        one_node.place_slices([0], 1, get_program("MG"), [8], 4, 30.0, 2)
        one_node.place_slices([0], 2, get_program("EP"), [4], 2, 0.1, 1)
        mixes = one_node.mixes
        slices = {s.job_id: s for s in mixes.slices(
            mixes.mix.item(0), one_node.share_residual,
            one_node.enforce_bw)}
        assert slices[1].procs == 8
        assert slices[1].n_nodes == 2
        assert slices[1].effective_ways == _effective_ways(one_node, 1)
        assert slices[2].program.name == "EP"

    def test_dedicated_ways_partitioned(self, one_node):
        one_node.place_slices([0], 1, get_program("CG"), [8], 10, 0.0, 1)
        # The allocated-ways gauge: the dedicated ways of the residents.
        assert one_node.gauge_columns()[2, 0] == 10

    def test_dedicated_ways_unpartitioned_zero(self, one_shared):
        one_shared.place_slices([0], 1, get_program("CG"), [8], 10, 0.0, 1)
        assert one_shared.gauge_columns()[2, 0] == 0
