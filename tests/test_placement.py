"""Node search/selection and process splitting (paper Section 4.4)."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import SchedulingError
from repro.hardware.cache import CacheModel
from repro.hardware.fabric import FabricSpec
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.scheduling.placement import _walk, find_nodes, split_procs
from repro.sim.cluster import ClusterState
from repro.sim.node import recount


def _can_host(cluster: ClusterState, nid: int, cores: int, ways: int,
              bw: float, net: float = 0.0) -> bool:
    """Whether node ``nid`` can host a slice with these demands, judged
    from its resident key and the per-job bookings alone
    (:func:`recount`), never from the per-mix arrays."""
    spec = cluster.spec.node
    mixes = cluster.mixes
    node = recount(mixes.keys[mixes.mix[nid]], mixes.meta, spec,
                   cluster.partitioned)
    if cores > node["free_cores"]:
        return False
    if cluster.partitioned and (
            ways < spec.cache.min_ways
            or node["parts"] >= spec.cache.max_partitions
            or ways > node["free_ways"]):
        return False
    return bw <= node["bw_eps"] and net <= node["net_eps"]

EP = get_program("EP")
CG = get_program("CG")


@pytest.fixture
def cluster() -> ClusterState:
    return ClusterState(ClusterSpec(num_nodes=6), partitioned=True)


class TestSplitProcs:
    def test_even_split(self):
        assert split_procs(16, [0, 1]).tolist() == [8, 8]

    def test_uneven_split_front_loaded(self):
        assert split_procs(30, [0, 1, 2, 3]).tolist() == [8, 8, 7, 7]

    def test_single_node(self):
        assert split_procs(7, [5]).tolist() == [7]

    def test_rejects_more_nodes_than_procs(self):
        with pytest.raises(SchedulingError):
            split_procs(2, [0, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(SchedulingError):
            split_procs(4, [])


class TestFindNodesBasics:
    def test_empty_cluster_satisfies(self, cluster):
        chosen = find_nodes(cluster, 2, cores=16, ways=4, bw=10.0, beta=2.0)
        assert chosen is not None and len(chosen) == 2

    def test_insufficient_cores_fails(self, cluster):
        for nid in range(6):
            cluster.place_slices([nid], 100 + nid, EP, [20], 2, 0.0, 1)
        assert find_nodes(cluster, 1, cores=16, ways=2, bw=0.0, beta=2.0) is None

    def test_insufficient_ways_fails(self, cluster):
        for nid in range(6):
            cluster.place_slices([nid], 100 + nid, CG, [4], 17, 0.0, 1)
        assert find_nodes(cluster, 1, cores=4, ways=4, bw=0.0, beta=2.0) is None

    def test_insufficient_bandwidth_fails(self, cluster):
        peak = cluster.spec.node.peak_bw
        for nid in range(6):
            cluster.place_slices([nid], 100 + nid, EP, [4], 2, peak - 5.0, 1)
        assert find_nodes(cluster, 1, cores=4, ways=2, bw=10.0, beta=2.0) is None
        assert find_nodes(cluster, 1, cores=4, ways=2, bw=4.0, beta=2.0) is not None

    def test_validation(self, cluster):
        with pytest.raises(SchedulingError):
            find_nodes(cluster, 0, cores=4, ways=2, bw=0.0, beta=2.0)
        with pytest.raises(SchedulingError):
            find_nodes(cluster, 1, cores=0, ways=2, bw=0.0, beta=2.0)


class TestGroupPreference:
    def test_prefers_single_group(self, cluster):
        # Nodes 0-2 get 8 cores used (group of 20-free), 3-5 idle.
        for nid in (0, 1, 2):
            cluster.place_slices([nid], 100 + nid, EP, [8], 2, 0.0, 1)
        chosen = find_nodes(cluster, 2, cores=8, ways=2, bw=0.0, beta=2.0)
        # The idle group (28 free) is idler: chosen from {3,4,5}.
        assert set(chosen) <= {3, 4, 5}

    def test_falls_back_across_groups(self, cluster):
        # Make 6 differently-loaded nodes; no group has 3 members.
        for nid in range(5):
            cluster.place_slices([nid], 100 + nid, EP, [nid + 1], 2, 0.0, 1)
        chosen = find_nodes(cluster, 3, cores=20, ways=2, bw=0.0, beta=2.0)
        assert chosen is not None and len(chosen) == 3

    def test_selects_lowest_occupancy_metric(self, cluster):
        # Keep the idle nodes out of reach so the 20-free group is used.
        for nid in (3, 4, 5):
            cluster.place_slices([nid], 200 + nid, EP, [24], 2, 0.0, 1)
        # Within one group (same free cores) way occupancy breaks ties.
        cluster.place_slices([0], 100, CG, [8], 12, 0.0, 1)   # heavy way use
        cluster.place_slices([1], 101, CG, [8], 2, 0.0, 1)    # light way use
        cluster.place_slices([2], 102, CG, [8], 6, 0.0, 1)    # medium
        chosen = find_nodes(cluster, 2, cores=8, ways=2, bw=0.0, beta=2.0)
        assert chosen.tolist() == [1, 2]

    def test_beta_zero_ignores_ways(self, cluster):
        for nid in (2, 3, 4, 5):
            cluster.place_slices([nid], 200 + nid, EP, [24], 2, 0.0, 1)
        cluster.place_slices([0], 100, CG, [8], 12, 0.0, 1)
        cluster.place_slices([1], 101, CG, [8], 2, 0.0, 1)
        chosen = find_nodes(cluster, 1, cores=8, ways=2, bw=0.0, beta=0.0)
        # Identical Co and Bo; tie broken by node id.
        assert chosen.tolist() == [0]

    def test_idle_shortcut_rejects_impossible_demand(self, cluster):
        # All nodes idle, but the demand exceeds node capacity.
        assert find_nodes(cluster, 1, cores=8, ways=25, bw=0.0, beta=2.0) is None
        assert find_nodes(
            cluster, 1, cores=8, ways=2, bw=1e9, beta=2.0
        ) is None


class TestCountHosts:
    def test_counts_every_dimension(self):
        cluster = ClusterState(
            ClusterSpec(num_nodes=5,
                        node=NodeSpec(cache=CacheModel(max_partitions=2))),
            partitioned=True,
        )
        peak = cluster.spec.node.peak_bw
        cluster.place_slices([0], 1, EP, [4], 2, 0.0, 1)
        cluster.place_slices([0], 2, EP, [4], 2, 0.0, 1)  # partitions full
        cluster.place_slices([1], 3, CG, [4], 18, 0.0, 1)  # 2 ways left
        cluster.place_slices([2], 4, EP, [4], 2, peak - 5.0, 1)
        cluster.place_slices([3], 5, EP, [4], 2, 0.0, 1, net=0.9)
        assert cluster.count_hosts(4, 2, 0.0, 0.0) == 4   # not node 0
        assert cluster.count_hosts(4, 3, 0.0, 0.0) == 3   # nor node 1
        assert cluster.count_hosts(4, 2, 10.0, 0.0) == 3  # nor node 2
        assert cluster.count_hosts(4, 2, 0.0, 0.2) == 3   # nor node 3
        assert cluster.count_hosts(4, 1, 0.0, 0.0) == 0   # ways floor
        assert cluster.count_hosts(4, 21, 0.0, 0.0) == 0
        cluster.fail_node(4)
        assert cluster.count_hosts(4, 2, 0.0, 0.0) == 3

    def test_unpartitioned_ignores_ways(self):
        cluster = ClusterState(ClusterSpec(num_nodes=3), partitioned=False)
        cluster.place_slices([0], 1, EP, [20], 0, 0.0, 1)
        assert cluster.count_hosts(8, 0, 0.0, 0.0) == 3
        assert cluster.count_hosts(9, 25, 0.0, 0.0) == 2


class TestIdleNodeTorGap:
    """Pins a known deviation (DESIGN.md §11): the idle fast path admits
    fully idle nodes by the empty mix's demand test alone, which has no
    ToR-headroom term, so an idle node in a rack whose uplink is
    full still takes a network-booking slice that its part-used
    rack-mate is refused."""

    @pytest.fixture
    def saturated(self) -> ClusterState:
        # Racks {0,1} {2,3} {4,5}; at 4:1 a 2-node rack's uplink carries
        # 0.5 node-links.  A 0.5 booking spread over nodes 0 and 2
        # crosses the spine entirely and fills both racks' uplinks.
        cluster = ClusterState(
            ClusterSpec(num_nodes=6,
                        fabric=FabricSpec(rack_size=2,
                                          oversubscription=4.0)),
            partitioned=False,
        )
        cluster.place_slices([0, 2], 1, EP, [4, 4], 0, 0.0, 2,
                             net=0.5)
        assert cluster.booked_tor.tolist() == [0.5, 0.5, 0.0]
        return cluster

    def test_part_used_rack_mate_is_refused(self, saturated):
        assert _can_host(saturated, 0, 4, 0, 0.0, net=0.1)
        assert saturated.scan_hosts([0, 1], 4, 0, 0.0, 0.1, 10).tolist() == []

    def test_idle_node_in_full_rack_is_admitted(self, saturated):
        # Node 1 heads the idle bucket and shares rack 0's full uplink.
        assert saturated.idle_nodes()[0] == 1
        assert find_nodes(saturated, 1, cores=4, ways=0, bw=0.0,
                          beta=2.0, net=0.1).tolist() == [1]
        # The count mirrors the walk: idle nodes 1, 3, 4, 5 qualify,
        # part-used nodes 0 and 2 do not.
        assert saturated.count_hosts(4, 0, 0.0, 0.1) == 4


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


def _draw_nodes(draw, hosts):
    """An ordered subset of ``hosts``: any permutation prefix on small
    clusters, a strided run (either direction) on wide ones."""
    if len(hosts) <= 32:
        perm = draw(st.permutations(hosts))
        return perm[:draw(st.integers(1, len(hosts)))]
    start = draw(st.integers(0, len(hosts) - 1))
    step = draw(st.sampled_from([1, 1, 2, 3]))
    run = hosts[start::step]
    run = run[:draw(st.integers(1, len(run)))]
    return run[::-1] if draw(st.booleans()) else run


@st.composite
def _cluster_states(draw) -> ClusterState:
    """Random cluster states: partitioned or not (with a low partition
    limit sometimes), bandwidth and network bookings, an active 4:1
    fabric carrying cross bookings or none, removals, and down nodes.
    A wide cluster sometimes grows free-core buckets past ``scan_cap``
    (256 for small demands), so the walk's truncation is exercised."""
    partitioned = draw(st.booleans(), label="partitioned")
    cache = CacheModel(max_partitions=draw(st.sampled_from([3, 16])))
    wide = draw(st.integers(0, 3), label="wide") == 0
    num_nodes = draw(st.integers(300, 600) if wide else st.integers(2, 20),
                     label="num_nodes")
    fabric = None
    if draw(st.booleans(), label="fabric"):
        fabric = FabricSpec(rack_size=draw(st.sampled_from([2, 3, 8])),
                            oversubscription=4.0)
    cluster = ClusterState(
        ClusterSpec(num_nodes=num_nodes, node=NodeSpec(cache=cache),
                    fabric=fabric),
        partitioned=partitioned,
    )
    node = cluster.spec.node
    placed = {}
    for job_id in range(draw(st.integers(0, 12), label="jobs")):
        procs = draw(st.integers(1, node.cores // 4))
        ways = draw(st.integers(cache.min_ways, 6)) if partitioned else 0
        bw = draw(st.sampled_from([0.0, 5.0, 30.0]))
        net = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
        hosts = [nid for nid in range(num_nodes)
                 if not cluster.is_down(nid)
                 and _can_host(cluster, nid, procs, ways, bw, net)]
        if not hosts:
            continue
        chosen = _draw_nodes(draw, hosts)
        cluster.place_slices(chosen, job_id, EP,
                             [procs] * len(chosen), ways, bw,
                             len(chosen), net=net)
        placed[job_id] = chosen
        if draw(st.integers(0, 3)) == 0:
            victim = draw(st.sampled_from(sorted(placed)))
            cluster.remove_slices(placed.pop(victim), victim)
        if draw(st.integers(0, 3)) == 0:
            idle = cluster.idle_nodes()
            if idle:
                cluster.fail_node(draw(st.sampled_from(idle)))
    return cluster


@st.composite
def _demands(draw, cluster: ClusterState):
    node = cluster.spec.node
    return dict(
        n_nodes=draw(st.integers(1, min(cluster.spec.num_nodes, 12))),
        # Small demands fit part-used nodes; cores + 1 fits none.
        cores=draw(st.integers(1, 8) | st.integers(1, node.cores + 1)),
        # 0 and 1 fall below the associativity floor on partitioned
        # clusters; llc_ways + 1 exceeds any node.
        ways=draw(st.integers(0, 6) | st.integers(0, node.llc_ways + 1)),
        bw=draw(st.sampled_from([0.0, 1.0, 60.0, node.peak_bw])),
        net=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        beta=2.0,
        locality=draw(st.booleans()),
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_count_precheck_is_exact(data):
    """``count_hosts >= n`` holds exactly when the bucket walk alone
    succeeds (DESIGN.md §7), and find_nodes — negative cache, core
    fast-fail, idle branch and count in front of the walk — returns the
    walk's node list.  Without a fabric the count is also checked
    against a per-node host test recomputed from each node's resident
    key (:func:`_can_host`)."""
    cluster = data.draw(_cluster_states(), label="cluster")
    cluster.verify_index()
    for _ in range(data.draw(st.integers(1, 6), label="demands")):
        d = data.draw(_demands(cluster), label="demand")
        demand = (d["cores"], d["ways"], d["bw"], d["net"])
        count = cluster.count_hosts(*demand)
        if cluster.spec.fabric is None:
            # No ToR term: the count is the per-node test's.
            assert count == sum(
                _can_host(cluster, nid, *demand)
                for nid in range(cluster.spec.num_nodes)
                if not cluster.is_down(nid)
            )
        # The drawn width, and the two widths either side of the count.
        for n in sorted({d["n_nodes"], max(count, 1), count + 1}):
            args = (cluster, n, d["cores"], d["ways"], d["bw"],
                    d["beta"], d["net"], d["locality"])
            walked = _walk(*args)
            assert (walked is not None) == (count >= n), (n, count, d)
            found = find_nodes(*args)
            assert (found is None) == (walked is None)
            if found is not None:
                assert found.tolist() == walked.tolist()
