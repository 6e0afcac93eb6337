"""Property test of the per-mix array contract (DESIGN.md §7).

A node's state is its resident mix id: :class:`~repro.sim.node.MixTable`
keeps one array per capacity field indexed by mix id, and every reader
gathers ``field[mix[node]]``.  The contract enforced here: after ANY
sequence of batched placements, removals, node failures and recoveries,
every live mix's array entries equal the values recomputed from its key
and the per-job bookings — **exactly**, floats included (the booked
sums are bit-identical to a left-to-right re-sum in resident insertion
order, and the epsilon complements to ``(peak - booked) + 1e-9``) — and
every node's ``booked_cross`` equals its residents' cross shares.

Hypothesis drives the operation sequence; :meth:`ClusterState.
verify_columns` (which recomputes from the keys, the per-job bookings
and the per-job cross shares through :func:`~repro.sim.node.recount`,
never from the arrays it checks) and :meth:`ClusterState.verify_index`
are the oracles.  The sequences run on a flat cluster and on an active
fabric, where shared nodes carry several jobs' cross-rack shares.
Placements follow the simulator's uniformity invariant — one job books
identical ways/bandwidth/network on every node of its placement,
exactly like ``place_slices`` callers do; process counts may differ per
node, and a removal may take a job off only some of its nodes.

Every placement and removal also returns the moving job's co-runners,
read from the resident-mix transitions; each set must equal a scan of
the residents of the placement's shared nodes (the ones hosting more
than one job) minus the moving job, and iterate in the order its
insertion sequence gives (the runtime's finish pushes follow it).  A
wide variant runs the sequences on 48-80 nodes, so batches take the
long-input array paths.

The same sequences also check the rest of the mix table: the refcounts
must equal node counts with no freed id reachable, each job's ``held``
mix counts must equal a count over its nodes, and rates must sit only
on live ids (all checked by ``verify_columns``); and the per-mix
arbitration view every node reads must be bit-identical to the
oracle's from-scratch arbitration of that node's resident key and the
per-job bookings (``tests/oracle``).  Two direct tests pin the oracle's
independence (a poisoned array entry is named by ``verify_columns``,
leaves the oracle's view unchanged, and, poisoned mid-run, makes the
run diverge from the oracle's replay) and the arrays' growth past their
initial capacity with ids freed and recycled.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.apps.catalog import get_program  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.hardware.fabric import FabricSpec  # noqa: E402
from repro.hardware.topology import ClusterSpec  # noqa: E402
from repro.sim.cluster import ClusterState  # noqa: E402
from repro.sim.node import _CAPACITY, _SHORT, distinct, recount  # noqa: E402
from repro.workloads.sequences import random_sequence  # noqa: E402
from tests.against_oracle import compare, fast_core  # noqa: E402
from tests.oracle import bookings_from_meta, node_view  # noqa: E402

NODES = 10
#: Real programs for the arbitration checks.  The flat column checks
#: run with opaque program objects; an active fabric reads a placed
#: program's network fraction, so the fabric checks place MG.
PROGRAMS = tuple(get_program(name) for name in ("MG", "EP", "CG", "LU"))


class _Driver:
    """Interprets a drawn operation sequence against one cluster,
    tracking just enough model state to keep every operation legal."""

    def __init__(self, partitioned: bool, enforce_bw: bool,
                 fabric: bool = False, programs: tuple = (),
                 nodes: int = NODES) -> None:
        # Racks of 4 at 4:1 make the fabric active on 10 nodes (three
        # racks, the last one short).
        self.nodes = nodes
        self.cluster = ClusterState(
            ClusterSpec(
                num_nodes=nodes,
                fabric=FabricSpec(rack_size=4, oversubscription=4.0)
                if fabric else None,
            ),
            partitioned=partitioned,
            enforce_bw=enforce_bw,
        )
        self.programs = programs
        self.partitioned = partitioned
        self.spec = self.cluster.spec.node
        self.placements: dict = {}  # job_id -> node_ids
        self.next_job = 0
        #: Each placement's returned co-runner set with a copy taken at
        #: return time.
        self.placed_corunners: list = []

    # -- legality queries ------------------------------------------------

    def hosts_for(self, procs: int, ways: int) -> list:
        """The up nodes that can take the slice, judged from each
        node's resident key (:func:`recount`), never from the per-mix
        arrays under test."""
        cluster = self.cluster
        mixes = cluster.mixes
        hosts = []
        for nid in range(self.nodes):
            if cluster.is_down(nid):
                continue
            node = recount(mixes.keys[mixes.mix[nid]], mixes.meta,
                           self.spec, self.partitioned)
            if node["free_cores"] >= procs and (
                    not self.partitioned
                    or node["free_ways"] >= ways
                    and node["parts"] < self.spec.cache.max_partitions):
                hosts.append(nid)
        return hosts

    def idle_up_nodes(self) -> list:
        cluster = self.cluster
        return [
            nid for nid in range(self.nodes)
            if not cluster.is_down(nid)
            and not cluster.resident_jobs_on([nid])
        ]

    def shared_residents(self, node_ids, job_id: int) -> set:
        """Column-scan reference of a move's co-runners: the residents
        of those of ``node_ids`` hosting more than one job, minus the
        moving job."""
        out = set()
        for nid in node_ids:
            residents = self.cluster.resident_jobs_on([nid])
            if len(residents) > 1:
                out.update(residents)
        out.discard(job_id)
        return out

    @staticmethod
    def filled(keys, job_id: int) -> list:
        """The iteration order of a co-runner set filled with the jobs
        of ``keys`` in order, then the moving job discarded: the order
        the runtime's finish pushes follow (DESIGN.md §7)."""
        out = set([j for key in keys for j, _ in key])
        out.discard(job_id)
        return list(out)

    def placed_order(self, node_ids, per_node, job_id: int) -> list:
        """A placement's co-runners fill by its distinct (prior mix,
        procs) groups: first-seen for short batches, ascending for long
        ones."""
        mixes = self.cluster.mixes
        pairs = [(int(mixes.mix[nid]), p)
                 for nid, p in zip(node_ids, per_node)]
        groups = (list(dict.fromkeys(pairs)) if len(pairs) <= _SHORT
                  else sorted(set(pairs)))
        return self.filled([mixes.keys[m] for m, _ in groups], job_id)

    def removed_order(self, node_ids, job_id: int) -> list:
        """A removal's co-runners fill by a row-by-row scan of the
        shared nodes' residents in node order."""
        mixes = self.cluster.mixes
        keys = [mixes.keys[mixes.mix[nid]] for nid in node_ids]
        return self.filled([k for k in keys if len(k) > 1], job_id)

    # -- operations ------------------------------------------------------

    def place(self, data) -> None:
        procs = data.draw(st.integers(1, max(1, self.spec.cores // 2)),
                          label="procs")
        ways = data.draw(
            st.integers(self.spec.cache.min_ways,
                        max(self.spec.cache.min_ways,
                            self.spec.llc_ways // 2)),
            label="ways",
        )
        hosts = self.hosts_for(procs, ways)
        if not hosts:
            return
        n = data.draw(st.integers(1, len(hosts)), label="n_nodes")
        node_ids = data.draw(
            st.permutations(hosts).map(lambda p: p[:n]), label="nodes"
        )
        bw = data.draw(
            st.sampled_from([0.0, 1.0, 0.125, self.spec.peak_bw / 7.0]),
            label="bw",
        )
        net = data.draw(st.sampled_from([0.0, 0.25, 1.0 / 3.0]),
                        label="net")
        program = data.draw(st.sampled_from(self.programs), label="program") \
            if self.programs else object()
        # Ids 1024 apart share a hash slot in every set table of up to
        # 1024 slots, so a co-runner set iterates in insertion order
        # and the order checks below see any change to it.
        job_id = self.next_job * 1024
        self.next_job += 1
        # Uneven splits make one job's nodes carry different mixes, so
        # a later removal can collapse two of them into one.
        per_node = data.draw(
            st.just([procs] * n)
            | st.lists(st.integers(1, procs), min_size=n, max_size=n),
            label="procs per node",
        )
        order = self.placed_order(node_ids, per_node, job_id)
        corunners = self.cluster.place_slices(
            node_ids, job_id, program, per_node,
            ways, bw, len(node_ids), net=net,
        )
        assert corunners == self.shared_residents(node_ids, job_id)
        assert list(corunners) == order
        self.placed_corunners.append((corunners, set(corunners)))
        self.placements[job_id] = tuple(node_ids)

    def remove(self, data) -> None:
        if not self.placements:
            return
        job_id = data.draw(
            st.sampled_from(sorted(self.placements)), label="victim"
        )
        node_ids = self.placements.pop(job_id)
        expect = self.shared_residents(node_ids, job_id)
        order = self.removed_order(node_ids, job_id)
        corunners = self.cluster.remove_slices(node_ids, job_id)
        assert corunners == expect and list(corunners) == order

    def trim(self, data) -> None:
        """Remove a job from some, but not all, of its nodes."""
        wide = sorted(j for j, nodes in self.placements.items()
                      if len(nodes) > 1)
        if not wide:
            return
        job_id = data.draw(st.sampled_from(wide), label="trimmed")
        nodes = self.placements[job_id]
        k = data.draw(st.integers(1, len(nodes) - 1), label="trim count")
        gone = data.draw(st.permutations(nodes).map(lambda p: p[:k]),
                         label="trim nodes")
        self.placements[job_id] = tuple(n for n in nodes if n not in gone)
        expect = self.shared_residents(gone, job_id)
        order = self.removed_order(gone, job_id)
        corunners = self.cluster.remove_slices(gone, job_id)
        assert corunners == expect and list(corunners) == order

    def fail(self, data) -> None:
        idle = self.idle_up_nodes()
        if not idle or len(idle) == self.nodes - len(
                self.cluster.down_nodes()):
            # Keep at least one node up so placement stays possible —
            # and never fail the last idle node of a full cluster.
            if len(idle) <= 1:
                return
        nid = data.draw(st.sampled_from(idle), label="fail")
        self.cluster.fail_node(nid)

    def recover(self, data) -> None:
        down = self.cluster.down_nodes()
        if not down:
            return
        nid = data.draw(st.sampled_from(down), label="recover")
        self.cluster.recover_node(nid)


@pytest.mark.parametrize(
    "partitioned,enforce_bw",
    [(True, True), (True, False), (False, False)],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_columns_match_recomputed_state(partitioned, enforce_bw, data):
    driver = _Driver(partitioned, enforce_bw)
    ops = data.draw(
        st.lists(
            st.sampled_from(["place", "remove", "trim", "fail", "recover"]),
            min_size=1, max_size=24,
        ),
        label="ops",
    )
    for op in ops:
        getattr(driver, op)(data)
        # The contract holds after EVERY operation, not just at rest.
        driver.cluster.verify_columns()
        driver.cluster.verify_index()
    # A committed decision keeps the set place_slices returned: no later
    # operation may alias or mutate it.
    for returned, at_return in driver.placed_corunners:
        assert returned == at_return
    # Drain everything: emptied slots must reset to exact zeros and
    # pristine epsilon complements.
    for job_id, node_ids in sorted(driver.placements.items()):
        driver.cluster.remove_slices(node_ids, job_id)
    driver.cluster.verify_columns()
    driver.cluster.verify_index()


@pytest.mark.parametrize("partitioned", [True, False])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_columns_match_recomputed_state_on_fabric(partitioned, data):
    """The same contract under an active fabric: multi-rack placements
    with a network booking carry per-node cross shares, so a shared
    node's ``booked_cross`` is re-summed over its survivors after every
    removal and trim."""
    driver = _Driver(partitioned, False, fabric=True, programs=PROGRAMS[:1])
    ops = data.draw(
        st.lists(st.sampled_from(["place", "place", "remove", "trim",
                                  "fail", "recover"]),
                 min_size=1, max_size=24),
        label="ops",
    )
    for op in ops:
        getattr(driver, op)(data)
        driver.cluster.verify_columns()
        driver.cluster.verify_index()
    for job_id, node_ids in sorted(driver.placements.items()):
        driver.cluster.remove_slices(node_ids, job_id)
    driver.cluster.verify_columns()
    assert not driver.cluster.booked_cross.any()


@pytest.mark.parametrize("partitioned,fabric", [
    (True, False), (False, False), (True, True), (False, True)])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_wide_transitions_match_recomputed_state(partitioned, fabric, data):
    """The same contract on 48-80 nodes, flat and leaf-spine, where
    batches longer than the short-list cutoff take the array paths: the
    scatter duplicate check, the counting group-by of
    :meth:`MixTable.groups` and :func:`distinct`, ``drop``'s ordering of
    several shared mixes, and the free-core index's split of one batch
    over several buckets.  The co-runner sets must also iterate in the
    reference order after every placement and removal."""
    nodes = data.draw(st.integers(48, 80), label="nodes")
    driver = _Driver(partitioned, False, fabric=fabric,
                     programs=PROGRAMS[:1] if fabric else (), nodes=nodes)
    ops = data.draw(
        st.lists(st.sampled_from(["place", "place", "remove", "trim",
                                  "fail", "recover"]),
                 min_size=1, max_size=16),
        label="ops",
    )
    for op in ops:
        getattr(driver, op)(data)
        driver.cluster.verify_columns()
        driver.cluster.verify_index()
    for job_id, node_ids in sorted(driver.placements.items()):
        driver.cluster.remove_slices(node_ids, job_id)
    driver.cluster.verify_columns()
    driver.cluster.verify_index()
    assert driver.cluster.mixes.held == {}


@given(values=st.lists(st.integers(0, 9), min_size=_SHORT + 1,
                       max_size=200),
       slack=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_distinct_matches_unique_on_long_arrays(values, slack):
    """Long arrays group by counting over the bound, yet answer exactly
    what ``np.unique`` does: sorted values, their counts and the
    inverse (``None`` when one value repeats)."""
    arr = np.array(values, dtype=np.int64)
    uniq, counts, inv = distinct(arr, 10 + slack)
    ref, ref_inv, ref_counts = np.unique(arr, return_inverse=True,
                                         return_counts=True)
    assert uniq == ref.tolist() and counts == ref_counts.tolist()
    if len(ref) == 1:
        assert inv is None
    else:
        assert inv.tolist() == ref_inv.tolist()


def test_distinct_short_lists_and_one_value():
    """Short inputs stay lists in first-seen order; one repeated value
    takes the shortcut at any length."""
    assert distinct([5, 3, 5, 1], 8) == ([5, 3, 1], [2, 1, 1], [0, 1, 0, 2])
    assert distinct(np.array([4, 2, 4]), 8) == ([4, 2], [2, 1], [0, 1, 0])
    assert distinct([7, 7, 7], 8) == ([7], [3], None)
    n = _SHORT + 1
    assert distinct(np.full(n, 6, dtype=np.int64), 8) == ([6], [n], None)


def test_cross_share_resum_after_partial_removal():
    """Two multi-rack jobs share node 0; trimming one of them off node
    0 leaves exactly the other's share there, and the rack and spine
    aggregates follow."""
    driver = _Driver(True, False, fabric=True)
    cluster = driver.cluster
    ways = cluster.spec.node.cache.min_ways
    mg = PROGRAMS[0]
    cluster.place_slices([0, 4], 1, mg, [2, 2], ways, 0.0, 2, net=0.25)
    cluster.place_slices([0, 5, 8], 2, mg, [2, 2, 2], ways, 0.0, 3,
                         net=1.0 / 3.0)
    booked = cluster.booked_cross
    assert float(booked[0]) == 0.25 + 1.0 / 3.0
    cluster.verify_columns()
    cluster.remove_slices([0], 2)
    assert float(booked[0]) == 0.25
    assert float(booked[5]) == 1.0 / 3.0
    cluster.verify_columns()
    cluster.remove_slices([5, 8], 2)
    cluster.remove_slices([4, 0], 1)
    assert not booked.any() and cluster.booked_spine == 0.0
    cluster.verify_columns()


def _oracle_view(cluster: ClusterState, nid: int) -> tuple:
    """The oracle's arbitration of node ``nid`` from its resident key
    and the per-job bookings."""
    mixes = cluster.mixes
    return node_view(cluster.spec.node, mixes.keys[mixes.mix[nid]],
                     bookings_from_meta(mixes.meta), cluster.partitioned,
                     cluster.share_residual, cluster.enforce_bw)


def _check_arbitration(cluster: ClusterState) -> None:
    """Every node's view (single and batched lookups) is bit-identical
    to the oracle's from-scratch arbitration."""
    mixes = cluster.mixes
    mids = mixes.mix.tolist()
    cluster.arbitration_batch(list(dict.fromkeys(mids)))
    reference = [_oracle_view(cluster, nid) for nid in range(NODES)]
    for nid in range(NODES):
        assert repr(mixes.views[mids[nid]]) == repr(reference[nid])
        assert repr(cluster.arbitration(nid)) == repr(reference[nid])


@pytest.mark.parametrize(
    "partitioned,enforce_bw,fabric",
    [(True, True, False), (True, False, True), (False, False, False),
     (False, False, True)],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mix_table_matches_slices_and_reference(partitioned, enforce_bw,
                                                fabric, data):
    driver = _Driver(partitioned, enforce_bw, fabric=fabric,
                     programs=PROGRAMS)
    cluster = driver.cluster
    ops = data.draw(
        st.lists(
            st.sampled_from(["place", "remove", "trim", "fail", "recover"]),
            min_size=1, max_size=24,
        ),
        label="ops",
    )
    for op in ops:
        getattr(driver, op)(data)
        cluster.verify_columns()
        _check_arbitration(cluster)
    for job_id, node_ids in sorted(driver.placements.items()):
        cluster.remove_slices(node_ids, job_id)
    cluster.verify_columns()
    # Drained: only the permanent empty mix survives, on every node.
    mixes = cluster.mixes
    assert mixes.ids == {(): 0} and mixes.refs[0] == NODES
    assert mixes.held == {}


def test_drop_collapses_two_mixes_into_one():
    """A leaving job with uneven procs splits its co-runner over two
    mixes; removing it collapses both into one id, which ``held`` must
    count once per node."""
    cluster = ClusterState(ClusterSpec(num_nodes=4))
    ways = cluster.spec.node.cache.min_ways
    mg = PROGRAMS[0]
    cluster.place_slices([0, 1], 1, mg, [3, 3], ways, 0.0, 2)
    cluster.place_slices([0, 1], 2, mg, [4, 5], ways, 0.0, 2)
    mixes = cluster.mixes
    split = [mixes.ids[((1, 3), (2, p))] for p in (4, 5)]
    assert mixes.held == {1: dict.fromkeys(split, 1),
                          2: dict.fromkeys(split, 1)}
    cluster.verify_columns()
    assert cluster.remove_slices([0, 1], 2) == {1}
    assert mixes.held == {1: {mixes.ids[((1, 3),)]: 2}}
    cluster.verify_columns()


#: The per-mix arrays and a poison value for each.
POISON = {"refs": 1, "free_cores": 1, "free_ways": 1, "parts": 1,
          "booked_bw": 0.5, "booked_net": 0.125, "bw_eps": 0.5,
          "net_eps": 0.125}


#: Mid-run poisons: each makes the entry lie about a part-used mix (no
#: free core, saturated bandwidth, no free way).
MID_RUN = {
    "free_cores": lambda mixes, m: -int(mixes.free_cores[m]),
    "booked_bw": lambda mixes, m: mixes.peak_bw,
    "free_ways": lambda mixes, m: -int(mixes.free_ways[m]),
}


def _poisoned_run(policy: str, name: str):
    """Replay a seeded run, poisoning the ``name`` entry of the mix
    carried by the first co-located placement's first node for exactly
    the step that makes that placement, and compare with the oracle."""
    def core():
        return fast_core(policy, ClusterSpec(num_nodes=8),
                         random_sequence(seed=7, n_jobs=16))

    clean = core()
    clean.run()
    step = 0
    for event in clean.tracer.events:
        if event["ev"] == "batch":
            step += 1
        elif event["ev"] == "start" and event["partners"]:
            break
    run = core()
    for _ in range(step):
        run.step()
    mixes = run.cluster.mixes
    m = mixes.mix[event["nodes"][0]]
    entries = getattr(mixes, name)
    true = entries[m]
    entries[m] = true + MID_RUN[name](mixes, m)
    run.step()
    entries[m] = true
    return compare(run)[0]


@pytest.mark.parametrize("partitioned", [True, False])
def test_poisoned_mix_arrays_fail_verify_not_reference(partitioned):
    """A wrong entry in any per-mix array of a live mix is named by
    ``verify_columns``, which recomputes from the key and bookings; the
    oracle derives its inputs the same way, so it still returns the view
    it returned before the poisoning.  Poisoned mid-run (no
    ``verify_columns``), a wrong ``free_cores``, ``booked_bw`` or
    ``free_ways`` entry moves a placement, and the oracle comparison
    names it; unpartitioned (CS) nodes never read ``free_ways``."""
    cluster = ClusterState(ClusterSpec(num_nodes=4), partitioned=partitioned)
    ways = cluster.spec.node.cache.min_ways
    cluster.place_slices([0, 1], 1, PROGRAMS[0], [6, 6], ways, 4.0, 2,
                         net=0.25)
    cluster.place_slices([1, 0], 2, PROGRAMS[1], [3, 3], ways + 1, 2.0, 2)
    mixes = cluster.mixes
    m = mixes.mix.item(0)
    assert m and mixes.keys[m] == ((1, 6), (2, 3))
    before = repr(_oracle_view(cluster, 0))
    cluster.verify_columns()
    for name, delta in POISON.items():
        getattr(mixes, name)[m] += delta
        with pytest.raises(SimulationError, match=f"mix {m}: "):
            cluster.verify_columns()
        assert repr(_oracle_view(cluster, 0)) == before
    for name, delta in POISON.items():
        getattr(mixes, name)[m] -= delta
    cluster.verify_columns()

    policy = "SNS" if partitioned else "CS"
    for name in MID_RUN:
        report = _poisoned_run(policy, name)
        if name == "free_ways" and not partitioned:
            assert report is None, report
        else:
            assert report is not None, f"poisoned {name} went unnoticed"
            assert report.startswith("record "), report


def test_mix_arrays_grow_and_recycle():
    """One distinct job per node drives more live mixes than the per-mix
    arrays first hold; freeing and recycling the ids keeps every entry
    equal to its recomputation and the free-core index consistent."""
    nodes = 64
    cluster = ClusterState(ClusterSpec(num_nodes=nodes))
    ways = cluster.spec.node.cache.min_ways
    mixes = cluster.mixes

    def checked(op, *args, **kwargs):
        op(*args, **kwargs)
        cluster.verify_columns()
        cluster.verify_index()

    for nid in range(nodes):
        checked(cluster.place_slices, [nid], nid, object(), [1 + nid % 27],
                ways, 0.25 * (nid % 3), 1, net=0.0625 * (nid % 2))
    assert len(mixes.keys) == nodes + 1 > _CAPACITY
    assert len(mixes.refs) >= len(mixes.keys)
    for nid in range(0, nodes, 2):
        checked(cluster.remove_slices, [nid], nid)
    assert len(mixes.free) == nodes // 2
    # Each fresh job interns two mixes (uneven procs) into freed ids.
    for k, nid in enumerate(range(0, nodes, 4)):
        checked(cluster.place_slices, [nid, nid + 2], nodes + k, object(),
                [2, 5], ways + 1, 1.5, 2)
    assert len(mixes.keys) == nodes + 1
    assert not mixes.free
    for nid in range(1, nodes, 2):
        checked(cluster.remove_slices, [nid], nid)
    for k, nid in enumerate(range(0, nodes, 4)):
        checked(cluster.remove_slices, [nid, nid + 2], nodes + k)
    assert mixes.ids == {(): 0} and mixes.refs[0] == nodes
    assert cluster.idle_count() == nodes
