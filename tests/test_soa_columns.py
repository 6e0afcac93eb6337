"""Property test of the SoA column contract (DESIGN.md §7).

The :class:`~repro.sim.node.NodeColumns` arrays are the *source of
truth* for node hot state; the per-node ``NodeState`` objects are thin
views over their slots.  The contract enforced here: after ANY sequence
of batched placements, removals, node failures and recoveries, every
column slot equals the value recomputed from the per-node resident
bookkeeping — **exactly**, floats included (the booked columns are
bit-identical to a left-to-right re-sum in resident insertion order,
and the epsilon complements to ``(peak - booked) + 1e-9``).

Hypothesis drives the operation sequence; :meth:`ClusterState.
verify_columns` and :meth:`ClusterState.verify_index` are the oracles.
Placements follow the simulator's uniformity invariant — one job books
identical procs/ways/bandwidth/network on every node of its placement,
exactly like ``place_slices`` callers do.

The same sequences also drive the interned resident-mix table: every
node's mix must decode to its slice-column ``(job, procs)`` row, the
refcounts must equal node counts with no freed id reachable (both
checked by ``verify_columns``), and the per-mix arbitration view every
node reads must be bit-identical to the from-scratch reference
arbitration of that node.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.apps.catalog import get_program  # noqa: E402
from repro.hardware.fabric import FabricSpec  # noqa: E402
from repro.hardware.topology import ClusterSpec  # noqa: E402
from repro.perfmodel.context import PerfContext  # noqa: E402
from repro.sim.cluster import ClusterState  # noqa: E402

NODES = 10
#: Real programs for the arbitration checks (the column checks run
#: with opaque program objects).
PROGRAMS = tuple(get_program(name) for name in ("MG", "EP", "CG", "LU"))


class _Driver:
    """Interprets a drawn operation sequence against one cluster,
    tracking just enough model state to keep every operation legal."""

    def __init__(self, partitioned: bool, enforce_bw: bool,
                 fabric: bool = False, programs: tuple = ()) -> None:
        # Racks of 4 at 4:1 make the fabric active on 10 nodes (three
        # racks, the last one short).
        self.cluster = ClusterState(
            ClusterSpec(
                num_nodes=NODES,
                fabric=FabricSpec(rack_size=4, oversubscription=4.0)
                if fabric else None,
            ),
            partitioned=partitioned,
            enforce_bw=enforce_bw,
            ctx=PerfContext(enabled=True),
        )
        self.programs = programs
        self.partitioned = partitioned
        self.spec = self.cluster.spec.node
        self.placements: dict = {}  # job_id -> node_ids
        self.next_job = 0

    # -- legality queries ------------------------------------------------

    def hosts_for(self, procs: int, ways: int) -> list:
        cluster = self.cluster
        return [
            nid for nid in range(NODES)
            if not cluster.is_down(nid)
            and cluster.nodes[nid].free_cores >= procs
            and (
                not self.partitioned
                or (
                    cluster.nodes[nid].free_ways >= ways
                    and cluster.nodes[nid].cat_partitions
                    < self.spec.cache.max_partitions
                )
            )
        ]

    def idle_up_nodes(self) -> list:
        cluster = self.cluster
        return [
            nid for nid in range(NODES)
            if not cluster.is_down(nid)
            and cluster.nodes[nid].is_idle
        ]

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
        job_id = self.next_job
        self.next_job += 1
        self.cluster.place_slices(
            node_ids, job_id, program,
            [procs] * len(node_ids),
            ways, bw, len(node_ids), net=net,
        )
        self.placements[job_id] = tuple(node_ids)

    def remove(self, data) -> None:
        if not self.placements:
            return
        job_id = data.draw(
            st.sampled_from(sorted(self.placements)), label="victim"
        )
        node_ids = self.placements.pop(job_id)
        self.cluster.remove_slices(node_ids, job_id)

    def fail(self, data) -> None:
        idle = self.idle_up_nodes()
        if not idle or len(idle) == NODES - len(self.cluster.down_nodes()):
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
            st.sampled_from(["place", "remove", "fail", "recover"]),
            min_size=1, max_size=24,
        ),
        label="ops",
    )
    for op in ops:
        getattr(driver, op)(data)
        # The contract holds after EVERY operation, not just at rest.
        driver.cluster.verify_columns()
        driver.cluster.verify_index()
    # Drain everything: emptied slots must reset to exact zeros and
    # pristine epsilon complements.
    for job_id, node_ids in sorted(driver.placements.items()):
        driver.cluster.remove_slices(node_ids, job_id)
    driver.cluster.verify_columns()
    driver.cluster.verify_index()


def _check_arbitration(cluster: ClusterState) -> None:
    """Every node's view (single and batched lookups) is bit-identical
    to a from-scratch arbitration on the reference path."""
    batch = cluster.arbitration_batch(list(range(NODES)))
    reference = [cluster._arbitrate(nid) for nid in range(NODES)]
    for nid in range(NODES):
        assert repr(cluster.arbitration(nid)) == repr(reference[nid])
        assert repr(batch[nid]) == repr(reference[nid])


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
            st.sampled_from(["place", "remove", "fail", "recover"]),
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
