"""The arrival-stamped free-core index against the index it replaced.

``ClusterState`` keeps bucket order as data: each node carries an
arrival stamp, and each free-core count has an append-only arrival
array with lazy deletion (DESIGN.md §7).  The order oracle here is a
plain model of the old index — one insertion-ordered dict per
free-core count, updated node by node — driven by the same operations.
After every operation each bucket's order and every index query must
agree exactly.  Clusters are small so that compaction and head advance
run many times per example.
"""

import numpy as np
import pytest

from repro.apps.catalog import get_program
from repro.errors import AllocationError
from repro.hardware.topology import ClusterSpec
from repro.scheduling.placement import split_procs
from repro.sim.cluster import ClusterState

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

EP = get_program("EP")


class _DictBuckets:
    """Insertion-ordered dict buckets, moved one node at a time."""

    def __init__(self, n: int, cores: int) -> None:
        self.free = [cores] * n
        self.buckets = {cores: dict.fromkeys(range(n))}

    def _drop(self, nid: int) -> None:
        bucket = self.buckets[self.free[nid]]
        del bucket[nid]
        if not bucket:
            del self.buckets[self.free[nid]]

    def _add(self, nid: int) -> None:
        self.buckets.setdefault(self.free[nid], {})[nid] = None

    def shift(self, nodes, deltas) -> None:
        for nid, delta in zip(nodes, deltas):
            self._drop(nid)
            self.free[nid] += delta
            self._add(nid)

    fail = _drop
    recover = _add

    def order(self, free: int) -> list:
        return list(self.buckets.get(free, ()))


class _Driver:
    def __init__(self, num_nodes: int) -> None:
        self.cluster = ClusterState(ClusterSpec(num_nodes=num_nodes),
                                    partitioned=False)
        self.cores = self.cluster.spec.node.cores
        self.model = _DictBuckets(num_nodes, self.cores)
        self.placed = {}
        self.next_job = 1

    def place(self, data) -> None:
        cluster, model = self.cluster, self.model
        up = [nid for nid in range(cluster.spec.num_nodes)
              if not cluster.is_down(nid) and model.free[nid] > 0]
        if not up:
            return
        how = data.draw(st.sampled_from(["idle", "bucket", "two", "any"]),
                        label="select")
        width = data.draw(st.integers(1, min(64, len(up))), label="width")
        levels = cluster.free_levels(1)
        if how == "idle" and cluster.idle_count():
            # CE's path: the first idle nodes (advances the head).
            nodes = cluster.first_idle(width).tolist()
        elif how == "bucket":
            # SNS's walk: a prefix of one bucket in arrival order.
            free = data.draw(st.sampled_from(levels), label="bucket")
            nodes = cluster.bucket(free)[:width].tolist()
        elif how == "two" and len(levels) > 1:
            # Two whole buckets: with the right split, the upper one's
            # nodes land on the level the lower one's leave.
            lo, hi = sorted(data.draw(
                st.lists(st.sampled_from(levels), min_size=2, max_size=2,
                         unique=True), label="pair"))
            nodes = (cluster.bucket(lo).tolist()
                     + cluster.bucket(hi).tolist())[:64]
        else:
            # Mixed old free counts, any order.
            nodes = data.draw(st.permutations(up), label="nodes")[:width]
        cap = min(model.free[nid] for nid in nodes)
        total = data.draw(st.integers(len(nodes), len(nodes) * cap),
                          label="procs")
        if how == "two" and len(levels) > 1 and hi - lo <= cap \
                and data.draw(st.booleans()):
            total = len(nodes) * (hi - lo)  # hi's nodes land on level lo
        procs = split_procs(total, nodes)  # even, or base+1 / base
        cluster.place_slices(nodes, self.next_job, EP, procs, 0, 0.0,
                             len(nodes))
        model.shift(nodes, (-procs).tolist())
        self.placed[self.next_job] = (nodes, procs.tolist())
        self.next_job += 1

    def remove(self, data) -> None:
        if not self.placed:
            return
        job = data.draw(st.sampled_from(sorted(self.placed)), label="job")
        nodes, procs = self.placed.pop(job)
        self.cluster.remove_slices(nodes, job)
        self.model.shift(nodes, procs)

    def fail(self, data) -> None:
        idle = self.model.order(self.cores)
        if idle:
            nid = data.draw(st.sampled_from(idle), label="fail")
            self.cluster.fail_node(nid)
            self.model.fail(nid)

    def recover(self, data) -> None:
        down = self.cluster.down_nodes()
        if down:
            nid = data.draw(st.sampled_from(down), label="recover")
            self.cluster.recover_node(nid)
            self.model.recover(nid)

    def check(self) -> None:
        cluster, model = self.cluster, self.model
        for free in range(self.cores + 1):
            assert cluster.bucket(free).tolist() == model.order(free)
        idle = model.order(self.cores)
        assert cluster.idle_count() == len(idle)
        assert cluster.idle_nodes() == idle
        for n in (1, 2, 3, 9, 64, cluster.spec.num_nodes):
            assert cluster.first_idle(n).tolist() == idle[:n]
        levels = sorted(model.buckets, reverse=True)
        for c in range(self.cores + 2):
            assert cluster.count_with_free_cores(c) == sum(
                len(model.buckets[f]) for f in levels if f >= c)
            assert cluster.free_levels(c) == [f for f in levels if f >= c]
        cluster.verify_index()


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_index_matches_dict_buckets(data):
    driver = _Driver(data.draw(st.integers(2, 80), label="num_nodes"))
    ops = data.draw(
        st.lists(st.sampled_from(["place", "place", "remove", "fail",
                                  "recover"]),
                 min_size=1, max_size=40),
        label="ops",
    )
    for op in ops:
        getattr(driver, op)(data)
        driver.check()
    for job in sorted(driver.placed):
        nodes, procs = driver.placed.pop(job)
        driver.cluster.remove_slices(nodes, job)
        driver.model.shift(nodes, procs)
        driver.check()


@pytest.mark.parametrize("procs", [[0, 4, 0], [4, -1, 4]])
def test_zero_proc_slice_is_rejected(procs):
    """Every placed node changes its free-core count, so every idle
    node is pristine: a slice without processes is refused untouched."""
    cluster = ClusterState(ClusterSpec(num_nodes=4), partitioned=False)
    with pytest.raises(AllocationError, match="must be positive"):
        cluster.place_slices([0, 1, 2], 1, EP, procs, 0, 0.0, 3)
    assert cluster.idle_nodes() == [0, 1, 2, 3]
    assert cluster.mixes.meta == {}
    cluster.verify_index()


def test_churn_keeps_arrival_arrays_bounded():
    """CE-style churn: each round takes the first idle nodes and frees
    them again.  Dead entries are reclaimed (head advance and
    compaction), so no arrival array outgrows a small multiple of the
    cluster, and the order matches the model throughout."""
    num_nodes = 16
    driver = _Driver(num_nodes)
    cluster, model = driver.cluster, driver.model
    rng = np.random.default_rng(7)
    running = []
    for job in range(1, 400):
        if running and (rng.random() < 0.5 or not cluster.idle_count()):
            victim, nodes, procs = running.pop(int(rng.integers(len(running))))
            cluster.remove_slices(nodes, victim)
            model.shift(nodes, procs)
        else:
            width = int(rng.integers(1, cluster.idle_count() + 1))
            nodes = cluster.first_idle(width).tolist()
            procs = split_procs(int(rng.integers(width, 28 * width + 1)),
                                nodes)
            cluster.place_slices(nodes, job, EP, procs, 0, 0.0, width)
            model.shift(nodes, (-procs).tolist())
            running.append((job, nodes, procs.tolist()))
        driver.check()
    assert max(len(ids) for ids in cluster._bids) <= 4 * num_nodes + 64


def test_wide_batch_entering_and_leaving_one_bucket():
    """A wide batch whose nodes leave a bucket's whole front while
    others of the batch enter it: the newcomers stay indexed."""
    cluster = ClusterState(ClusterSpec(num_nodes=20), partitioned=False)
    cluster.place_slices(list(range(9)), 1, EP, [8] * 9, 0, 0.0, 9)
    assert cluster.bucket(20).tolist() == list(range(9))
    # Nodes 0-8 go 20 -> 12 while nodes 9-17 go 28 -> 20.
    cluster.place_slices(list(range(18)), 2, EP, [8] * 18, 0, 0.0, 18)
    assert cluster.bucket(12).tolist() == list(range(9))
    assert cluster.bucket(20).tolist() == list(range(9, 18))
    assert cluster.idle_nodes() == [18, 19]
    cluster.verify_index()
