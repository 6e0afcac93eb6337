"""Leaf-spine fabric: spec geometry, link-column bookkeeping,
rack-aware placement, the flat-degenerate bit-identity contract, and
the link-conservation invariant (DESIGN.md §13)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.apps.catalog import get_program, stream_program
from repro.config import SchedulerConfig, SimConfig, TraceConfig
from repro.errors import HardwareModelError
from repro.experiments.common import run_policy
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.hardware.fabric import FabricSpec
from repro.hardware.topology import ClusterSpec
from repro.obs import check_trace
from repro.sim.cluster import ClusterState
from repro.sim.node import recount
from repro.workloads.sequences import random_sequence


class TestFabricSpec:
    def test_rejects_bad_rack_size(self):
        with pytest.raises(HardwareModelError):
            FabricSpec(rack_size=0)

    def test_rejects_undersubscription(self):
        with pytest.raises(HardwareModelError):
            FabricSpec(oversubscription=0.5)

    def test_flat_is_inactive(self):
        assert FabricSpec(rack_size=4, oversubscription=1.0).is_flat
        assert not FabricSpec(rack_size=4,
                              oversubscription=1.0).active_for(64)

    def test_single_rack_is_inactive(self):
        fabric = FabricSpec(rack_size=8, oversubscription=4.0)
        assert not fabric.active_for(8)
        assert fabric.active_for(9)

    def test_rack_geometry_short_last_rack(self):
        fabric = FabricSpec(rack_size=3, oversubscription=2.0)
        assert fabric.num_racks(10) == 4
        assert fabric.rack_of(0) == 0 and fabric.rack_of(9) == 3
        assert fabric.rack_map(10).tolist() == \
            [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
        assert fabric.rack_span(3, 10) == (9, 10)
        assert fabric.rack_population(10).tolist() == [3, 3, 3, 1]

    def test_utilization_units(self):
        fabric = FabricSpec(rack_size=4, oversubscription=4.0)
        # A rack of 4 offers 1 node-link of uplink at 4:1; injecting
        # one node-link saturates it exactly.
        assert fabric.tor_utilization(1.0, 4) == 1.0
        assert fabric.spine_utilization(16.0, 64) == 1.0

    def test_routes(self):
        fabric = FabricSpec(rack_size=2, oversubscription=2.0)
        assert fabric.route(3, 3) == ()
        assert "spine" not in fabric.route(2, 3)
        assert "spine" in fabric.route(1, 2)


def _active_cluster(num_nodes=6, rack_size=2, oversub=4.0, **kwargs):
    kwargs.setdefault("partitioned", False)
    return ClusterState(
        ClusterSpec(num_nodes=num_nodes,
                    fabric=FabricSpec(rack_size=rack_size,
                                      oversubscription=oversub)),
        **kwargs,
    )


class TestPickIdlestRackAware:
    def test_fills_within_rack(self):
        # Candidates 0 (rack 0) and 2, 3 (rack 1), all idle: the flat
        # pick is [0, 2], but rack 1 can hold the whole job — the
        # rack-aware pick confines itself there.
        cluster = _active_cluster()
        assert cluster.pick_idlest([0, 2, 3], 2, 0.0).tolist() == [0, 2]
        assert cluster.pick_idlest([0, 2, 3], 2, 0.0,
                                   rack_aware=True).tolist() == [2, 3]

    def test_prefers_idlest_eligible_rack(self):
        # Racks 1 and 2 both fit the job; rack 2's nodes are busier,
        # so the pick confines to rack 1.
        cluster = _active_cluster()
        cluster.place_slices([4, 5], 1, object(), [8, 8], 0, 0.0, 2)
        assert cluster.pick_idlest([2, 3, 4, 5], 2, 0.0,
                                   rack_aware=True).tolist() == [2, 3]

    def test_tie_breaks_toward_fuller_racks(self):
        # No rack holds all three: equal-metric candidates order by
        # rack candidate count (2, 3 from rack 1) before node id.
        cluster = _active_cluster()
        assert cluster.pick_idlest([0, 2, 3], 3, 0.0,
                                   rack_aware=True).tolist() == [2, 3, 0]

    def test_inert_without_fabric(self):
        cluster = ClusterState(ClusterSpec(num_nodes=6))
        assert cluster.pick_idlest([0, 2, 3], 2, 0.0,
                                   rack_aware=True).tolist() \
            == cluster.pick_idlest([0, 2, 3], 2, 0.0).tolist()

    def test_inert_on_flat_fabric(self):
        cluster = _active_cluster(oversub=1.0)
        assert cluster.pick_idlest([0, 2, 3], 2, 0.0,
                                   rack_aware=True).tolist() == [0, 2]


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

NODES = 10
RACK_SIZE = 3
#: Programs that communicate, plus STREAM, whose network fraction is 0.
DRIVER_PROGRAMS = (get_program("MG"), get_program("CG"), stream_program())


class _FabricDriver:
    """Randomized place/remove/fail/recover against a fabric-active
    cluster, mirroring the exact-float contract of the cross columns:
    place extends each node's left-to-right sum by one IEEE add,
    removal re-sums the survivors in insertion order.  The physical
    cross set is rebuilt from scratch over the live placements."""

    def __init__(self, partitioned: bool) -> None:
        self.cluster = ClusterState(
            ClusterSpec(num_nodes=NODES,
                        fabric=FabricSpec(rack_size=RACK_SIZE,
                                          oversubscription=4.0)),
            partitioned=partitioned,
        )
        self.spec = self.cluster.spec.node
        # Partitioned nodes need the minimum dedicated ways per slice.
        self.ways = self.spec.cache.min_ways if partitioned else 0
        self.placements: dict = {}  # job_id -> node_ids
        self.programs: dict = {}  # job_id -> program
        # job_id -> {node_id: cross contribution} in placement order
        self.cross: dict = {}
        # node_id -> current expected booked_cross, updated with the
        # same operation sequence the columns use
        self.expected = [0.0] * NODES
        # node_id -> [(job_id, cross), ...] in insertion order
        self.slices = [[] for _ in range(NODES)]
        self.next_job = 0

    def model_place(self, node_ids, net) -> None:
        count = len(node_ids)
        racks = [nid // RACK_SIZE for nid in node_ids]
        counts = {r: racks.count(r) for r in racks}
        for nid, r in zip(node_ids, racks):
            if net == 0.0 or count <= 1 or len(counts) == 1:
                cross = 0.0
            else:
                cross = net * (count - counts[r]) / (count - 1)
            self.slices[nid].append((self.next_job, cross))
            self.expected[nid] += cross

    def model_remove(self, node_ids, job_id) -> None:
        for nid in node_ids:
            self.slices[nid] = [
                s for s in self.slices[nid] if s[0] != job_id
            ]
            acc = 0.0
            for _, cross in self.slices[nid]:
                acc += cross
            self.expected[nid] = acc

    def physical_cross(self) -> dict:
        """job_id -> (rack ids, uplink loads, network fraction) of the
        live placements that span racks and communicate, in placement
        order; a rack holding ``s`` of a job's ``n`` nodes carries
        ``frac * ((n - s) / (n - 1)) * s``."""
        cross = {}
        for job_id, node_ids in self.placements.items():
            n = len(node_ids)
            racks = [nid // RACK_SIZE for nid in node_ids]
            counts = {r: racks.count(r) for r in sorted(set(racks))}
            frac = self.programs[job_id].comm.network_fraction(n)
            if len(counts) > 1 and frac != 0.0:
                cross[job_id] = (
                    list(counts),
                    [frac * ((n - s) / (n - 1)) * s
                     for s in counts.values()],
                    frac,
                )
        return cross

    def check(self) -> None:
        self.cluster.verify_columns()
        self.cluster.verify_index()
        booked = self.cluster.booked_cross
        for nid in range(NODES):
            assert float(booked[nid]) == self.expected[nid], (
                f"node {nid}: booked_cross {float(booked[nid])!r} != "
                f"model {self.expected[nid]!r}"
            )
        got = {jid: (racks.tolist(), loads.tolist(), frac)
               for jid, (racks, loads, frac)
               in self.cluster.cross_jobs.items()}
        want = self.physical_cross()
        assert list(got) == list(want), "physical cross set or its order"
        assert got == want

    def up_hosts(self, procs: int) -> list:
        """The up nodes that can take ``procs`` processes and the
        ways, judged from each node's resident key (:func:`recount`)."""
        cluster = self.cluster
        mixes = cluster.mixes
        max_parts = self.spec.cache.max_partitions
        hosts = []
        for nid in range(NODES):
            if cluster.is_down(nid):
                continue
            node = recount(mixes.keys[mixes.mix[nid]], mixes.meta,
                           self.spec, cluster.partitioned)
            if node["free_cores"] >= procs and (
                    not cluster.partitioned
                    or node["free_ways"] >= self.ways
                    and node["parts"] < max_parts):
                hosts.append(nid)
        return hosts

    def place(self, data) -> None:
        procs = data.draw(st.integers(1, self.spec.cores // 2),
                          label="procs")
        hosts = self.up_hosts(procs)
        if not hosts:
            return
        n = data.draw(st.integers(1, len(hosts)), label="n_nodes")
        node_ids = data.draw(
            st.permutations(hosts).map(lambda p: p[:n]), label="nodes"
        )
        net = data.draw(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.1]),
                        label="net")
        program = data.draw(st.sampled_from(DRIVER_PROGRAMS),
                            label="program")
        job_id = self.next_job
        self.cluster.place_slices(
            node_ids, job_id, program,
            [procs] * len(node_ids), self.ways, 0.0, len(node_ids),
            net=net,
        )
        self.model_place(node_ids, net)
        self.placements[job_id] = tuple(node_ids)
        self.programs[job_id] = program
        self.next_job += 1

    def remove(self, data) -> None:
        if not self.placements:
            return
        job_id = data.draw(
            st.sampled_from(sorted(self.placements)), label="victim"
        )
        node_ids = self.placements.pop(job_id)
        self.cluster.remove_slices(node_ids, job_id)
        self.model_remove(node_ids, job_id)

    def fail(self, data) -> None:
        idle = [
            nid for nid in range(NODES)
            if not self.cluster.is_down(nid)
            and not self.cluster.resident_jobs_on([nid])
        ]
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


@pytest.mark.parametrize("partitioned", [True, False])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_link_columns_match_recomputed_state(partitioned, data):
    driver = _FabricDriver(partitioned)
    ops = data.draw(
        st.lists(
            st.sampled_from(["place", "remove", "fail", "recover"]),
            min_size=1, max_size=24,
        ),
        label="ops",
    )
    for op in ops:
        getattr(driver, op)(data)
        # The contract holds after EVERY operation (verify_columns
        # cross-checks booked_tor / booked_spine against booked_cross;
        # the driver checks booked_cross against the model).
        driver.check()
    # Drain: emptied link columns must reset to exact zeros.
    for job_id in sorted(driver.placements):
        node_ids = driver.placements.pop(job_id)
        driver.cluster.remove_slices(node_ids, job_id)
        driver.model_remove(node_ids, job_id)
    driver.check()
    assert float(driver.cluster.booked_spine) == 0.0
    assert not driver.cluster.cross_jobs


def _traced_run(fabric, *, policy="SNS", level="full", n_jobs=12,
                num_nodes=8, **config_kwargs):
    return run_policy(
        policy,
        ClusterSpec(num_nodes=num_nodes, fabric=fabric),
        random_sequence(seed=3, n_jobs=n_jobs),
        scheduler_config=SchedulerConfig(manage_network=True,
                                         **config_kwargs),
        sim_config=SimConfig(trace=TraceConfig(level=level)),
    )


class TestFlatDegenerateContract:
    """fabric=None, a 1:1 fabric, and a single-rack fabric must be
    indistinguishable — byte-identical full traces, no fabric work."""

    @pytest.mark.parametrize("fabric", [
        FabricSpec(rack_size=2, oversubscription=1.0),
        FabricSpec(rack_size=8, oversubscription=8.0),
    ], ids=["flat-1to1", "single-rack"])
    def test_degenerate_fabric_is_bit_identical(self, fabric):
        base = _traced_run(None)
        degen = _traced_run(fabric)
        assert degen.trace.events == base.trace.events
        assert degen.makespan == base.makespan
        assert degen.mean_turnaround() == base.mean_turnaround()
        assert degen.counters.get("fabric_link_refreshes", 0) == 0
        assert degen.counters.get("fabric_route_evals", 0) == 0

    def test_locality_knob_inert_without_fabric(self):
        base = _traced_run(None)
        loc = _traced_run(None, locality_aware=True)
        assert loc.trace.events == base.trace.events

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: with locality_aware, the idle pick ranks idle "
        "nodes by node id instead of arrival order, even on a flat "
        "cluster"))
    def test_locality_knob_inert_with_staggered_arrivals(self):
        """Once nodes are released out of id order the idle bucket's
        arrival order differs from id order, and the knob moves a flat
        run's placements.  The fix for ROADMAP item 2 flips this."""
        def decisions(locality_aware):
            jobs = random_sequence(seed=0, n_jobs=20)
            for i, job in enumerate(jobs):
                job.submit_time = 50.0 * i
            return run_policy(
                "SNS", ClusterSpec(num_nodes=8), jobs,
                scheduler_config=SchedulerConfig(
                    locality_aware=locality_aware),
                sim_config=SimConfig(trace=TraceConfig(level="decisions")),
            ).trace.events

        assert decisions(True) == decisions(False)


class TestLinkConservation:
    @pytest.fixture(scope="class")
    def events(self):
        result = _traced_run(
            FabricSpec(rack_size=2, oversubscription=4.0),
            level="events", n_jobs=24,
        )
        return result.trace.events

    def test_active_fabric_run_passes(self, events):
        assert [e for e in events if e["ev"] == "links"], \
            "expected links records on a fabric-active run"
        assert check_trace(events) == []

    def test_catches_corrupted_link_record(self, events):
        corrupted = copy.deepcopy(events)
        links = [e for e in corrupted
                 if e["ev"] == "links" and any(e["tor"])]
        assert links, "expected a loaded links record to corrupt"
        links[-1]["tor"][0] += 0.125
        errors = check_trace(corrupted)
        assert any("ToR" in e for e in errors)

    def test_catches_links_without_fabric(self):
        events = copy.deepcopy(_traced_run(None).trace.events)
        events.append({"ev": "links", "t": 0.0, "tor": [0.0],
                       "spine": 0.0})
        errors = check_trace(events)
        assert any("declares no fabric" in e for e in errors)

    def test_many_racks_under_faults(self):
        # 70 nodes in racks of 4 (the last rack holds 2) under CE, whose
        # first-idle placements of 2- and 4-node jobs cross racks, with an
        # MTBF plan dense enough that evictions empty the cross set.
        num_nodes = 70
        plan = FaultPlan.from_mtbf(
            seed=0, num_nodes=num_nodes, mtbf_s=1000.0, mttr_s=120.0,
            horizon_s=1500.0,
            retry=RetryPolicy(max_retries=3, backoff_s=60.0),
        )
        result = run_policy(
            "CE",
            ClusterSpec(num_nodes=num_nodes,
                        fabric=FabricSpec(rack_size=4,
                                          oversubscription=4.0)),
            random_sequence(seed=0, n_jobs=60, proc_choices=(28, 56, 112),
                            program_names=("MG", "CG", "LU", "BFS",
                                           "WC", "TS", "NW", "EP")),
            sim_config=SimConfig(trace=TraceConfig(level="events")),
            fault_plan=plan,
        )
        events = result.trace.events
        assert check_trace(events) == []
        links = [e for e in events if e["ev"] == "links"]
        assert len(links[0]["tor"]) == 18
        assert any(e["spine"] > 0.0 for e in links)
        # An all-zero record whose cause, since the previous links
        # record, is an eviction and not a finish.
        kinds: set = set()
        evicted_empty = False
        for event in events:
            if event["ev"] != "links":
                kinds.add(event["ev"])
                continue
            if not any(event["tor"]) and event["spine"] == 0.0 \
                    and "evict" in kinds and "finish" not in kinds:
                evicted_empty = True
            kinds = set()
        assert evicted_empty


def _scalar_link_loads(fabric, num_nodes, cross):
    """The scalar per-rack loop the vectorized recompute must match bit
    for bit (the arithmetic ``obs/invariants`` replays): ``cross`` maps
    job id -> (frac, n_nodes, ((rack, nodes in rack), ...)), iterated
    in insertion order for the route loads."""
    num_racks = fabric.num_racks(num_nodes)
    pop = [int(p) for p in fabric.rack_population(num_nodes)]
    tor = [0.0] * num_racks
    for jid in sorted(cross):
        frac, n, rack_counts = cross[jid]
        for r, s in rack_counts:
            tor[r] += frac * ((n - s) / (n - 1)) * s
    spine = 0.0
    for load in tor:
        spine += load
    tor_util = [
        fabric.tor_utilization(tor[r], pop[r]) for r in range(num_racks)
    ]
    spine_util = fabric.spine_utilization(spine, num_nodes)
    route_loads = {}
    for jid, (frac, n, rack_counts) in cross.items():
        load = spine_util
        for r, _s in rack_counts:
            if tor_util[r] > load:
                load = tor_util[r]
        route_loads[jid] = load
    return tor_util, spine_util, route_loads


@st.composite
def _cross_sets(draw):
    """A fabric geometry (the last rack often short) and a set of
    running cross-rack jobs ``{job id: (frac, nodes)}`` in arbitrary
    insertion order.  Each job's nodes are drawn anywhere, from two
    racks every such job shares, or one node per rack."""
    rack_size = draw(st.integers(1, 6), label="rack_size")
    full = draw(st.integers(1, 40), label="full_racks")
    short = draw(st.integers(0, rack_size - 1), label="short_rack")
    num_nodes = full * rack_size + short
    hypothesis.assume(num_nodes > rack_size)
    fabric = FabricSpec(
        rack_size=rack_size,
        oversubscription=draw(st.sampled_from([1.5, 2.0, 3.0, 4.0, 8.0]),
                              label="oversub"),
    )
    num_racks = fabric.num_racks(num_nodes)
    shared = [n for r in (0, num_racks - 1)
              for n in range(*fabric.rack_span(r, num_nodes))]
    jids = draw(st.lists(st.integers(0, 10_000), max_size=16, unique=True),
                label="job_ids")
    jobs = {}
    for jid in jids:
        shape = draw(st.sampled_from(["any", "shared", "spread"]),
                     label="shape")
        if shape == "any":
            nodes = draw(st.lists(st.integers(0, num_nodes - 1),
                                  min_size=2, max_size=num_nodes,
                                  unique=True), label="nodes")
        elif shape == "shared":
            nodes = draw(st.lists(st.sampled_from(shared), min_size=2,
                                  unique=True), label="nodes")
        else:
            racks = draw(st.lists(st.integers(0, num_racks - 1),
                                  min_size=2, unique=True), label="racks")
            nodes = [fabric.rack_span(r, num_nodes)[0] for r in racks]
        if len({fabric.rack_of(n) for n in nodes}) < 2:
            continue  # rack-local: never registered as a cross job
        frac = draw(st.floats(min_value=1e-3, max_value=1.0),
                    label="frac")
        jobs[jid] = (frac, nodes)
    return fabric, num_nodes, jobs


class TestVectorizedLinkLoads:
    """The runtime's vectorized recompute must equal the scalar loop
    float for float: the invariant checker replays the scalar form."""

    @staticmethod
    def _check(fabric, num_nodes, jobs):
        rack_map = fabric.rack_map(num_nodes)
        cross = {}
        for jid, (frac, nodes) in jobs.items():
            counts: dict = {}
            for nid in nodes:
                r = fabric.rack_of(nid)
                counts[r] = counts.get(r, 0) + 1
            cross[jid] = (frac, len(nodes), tuple(sorted(counts.items())))
        want_tor, want_spine, want_route = _scalar_link_loads(
            fabric, num_nodes, cross
        )
        # The cluster's registration (_place_cross) and recompute
        # (link_loads), in sorted job-id order.
        jids = sorted(jobs)
        racks, loads = [], []
        for jid in jids:
            frac, nodes = jobs[jid]
            uniq, cnt = np.unique(rack_map[nodes], return_counts=True)
            racks.append(uniq)
            loads.append(fabric.uplink_loads(frac, len(nodes), cnt))
        tor_util, spine_util, route = fabric.link_utilization(
            num_nodes, racks, loads
        )
        assert [x.hex() for x in tor_util.tolist()] == \
            [x.hex() for x in want_tor]
        assert spine_util.hex() == want_spine.hex()
        assert {j: x.hex() for j, x in zip(jids, route.tolist())} == \
            {j: x.hex() for j, x in want_route.items()}

    @given(case=_cross_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_loop(self, case):
        self._check(*case)

    def test_empty_cross_set(self):
        fabric = FabricSpec(rack_size=4, oversubscription=4.0)
        self._check(fabric, 70, {})
        tor_util, spine_util, route = fabric.link_utilization(70, [], [])
        assert tor_util.tolist() == [0.0] * 18
        assert spine_util == 0.0 and route.size == 0


class TestFigOversub:
    def test_locality_diverges_under_oversubscription(self):
        from repro.experiments.fig_oversub import run_fig_oversub

        result = run_fig_oversub(oversub_ratios=(1.0, 8.0),
                                 variants=("SNS", "SNS+loc"))
        sns1 = result.get(1.0, "SNS")
        loc1 = result.get(1.0, "SNS+loc")
        # 1:1 is flat: locality has nothing to exploit.
        assert (sns1.makespan, sns1.mean_turnaround) == \
            (loc1.makespan, loc1.mean_turnaround)
        assert sns1.route_evals == 0 and loc1.route_evals == 0
        sns8 = result.get(8.0, "SNS")
        loc8 = result.get(8.0, "SNS+loc")
        # Plain SNS saturates ToR uplinks at 8:1 and pays for it;
        # locality-aware SNS crosses the spine far less.
        assert sns8.makespan > sns1.makespan
        assert loc8.makespan < sns8.makespan
        assert 0 < loc8.route_evals < sns8.route_evals
