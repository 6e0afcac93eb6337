"""CE / CS / SNS policy behaviour at the scheduling-decision level."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SchedulerConfig
from repro.hardware.topology import ClusterSpec
from repro.scheduling.ce import CompactExclusiveScheduler
from repro.scheduling.cs import CompactShareScheduler
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.cluster import ClusterState
from repro.sim.job import Job, PendingQueue


def make_jobs(*specs, start_id=0):
    """specs: (program_name, procs) tuples, all submitted at t=0."""
    return [
        Job(job_id=start_id + i, program=get_program(name), procs=procs)
        for i, (name, procs) in enumerate(specs)
    ]


@pytest.fixture
def cluster_spec() -> ClusterSpec:
    return ClusterSpec(num_nodes=4)


class TestCE:
    def test_compact_exclusive_placement(self, cluster_spec):
        policy = CompactExclusiveScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        jobs = make_jobs(("MG", 16))
        decisions = policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert len(decisions) == 1
        d = decisions[0]
        assert d.scale_factor == 1
        assert d.placement.n_nodes == 1
        assert cluster.gauge_columns()[0, d.placement.node_ids[0]] == 28 - 16

    def test_multi_node_job_split_evenly(self, cluster_spec):
        policy = CompactExclusiveScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        jobs = make_jobs(("MG", 32))
        (d,) = policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.placement.n_nodes == 2
        assert sorted(d.placement.procs_per_node.values()) == [16, 16]

    def test_never_shares_nodes(self, cluster_spec):
        policy = CompactExclusiveScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        jobs = make_jobs(*[("WC", 16)] * 6)
        decisions = policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        # 4 nodes -> only 4 jobs run despite 12 idle cores on each.
        assert len(decisions) == 4
        used = [n for d in decisions for n in d.placement.node_ids]
        assert len(used) == len(set(used))

    def test_skips_oversized_job_but_places_later_ones(self, cluster_spec):
        policy = CompactExclusiveScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        jobs = make_jobs(("MG", 28 * 5), ("EP", 16))  # first needs 5 nodes
        decisions = policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert [d.job.job_id for d in decisions] == [1]


class TestCS:
    def test_shares_idle_cores(self, cluster_spec):
        policy = CompactShareScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        jobs = make_jobs(*[("WC", 14)] * 8)
        decisions = policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert len(decisions) == 8  # 2 jobs per 28-core node

    def test_prefers_scale_one(self, cluster_spec):
        policy = CompactShareScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        jobs = make_jobs(("MG", 16))
        (d,) = policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.scale_factor == 1

    def test_spreads_only_when_compact_impossible(self, cluster_spec):
        policy = CompactShareScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        # Consume 20 cores on every node: 8 free each.
        for nid in range(4):
            cluster.place_slices([nid], 100 + nid, get_program("EP"), [20],
                                 20, 0.0, 1)
        jobs = make_jobs(("WC", 16))
        (d,) = policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.scale_factor == 2
        assert d.placement.n_nodes == 2

    def test_single_node_program_never_spreads(self, cluster_spec):
        policy = CompactShareScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        for nid in range(4):
            cluster.place_slices([nid], 100 + nid, get_program("EP"), [20],
                                 20, 0.0, 1)
        jobs = make_jobs(("GAN", 16))
        assert policy.schedule_point(cluster, PendingQueue(jobs), 0.0) == []


class TestSNS:
    @pytest.fixture
    def sns(self, cluster_spec) -> SpreadNShareScheduler:
        return SpreadNShareScheduler(cluster_spec)

    def test_scaling_program_spread_to_ideal_scale(self, sns, cluster_spec):
        cluster = ClusterState(cluster_spec, partitioned=True)
        jobs = make_jobs(("CG", 16))
        (d,) = sns.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.scale_factor == 2  # CG's ideal scale

    def test_neutral_program_kept_compact(self, sns, cluster_spec):
        cluster = ClusterState(cluster_spec, partitioned=True)
        jobs = make_jobs(("WC", 16))
        (d,) = sns.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.scale_factor == 1

    def test_compact_program_kept_compact(self, sns, cluster_spec):
        cluster = ClusterState(cluster_spec, partitioned=True)
        jobs = make_jobs(("BFS", 16))
        (d,) = sns.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.scale_factor == 1

    def test_way_partitions_deducted(self, sns, cluster_spec):
        cluster = ClusterState(cluster_spec, partitioned=True)
        jobs = make_jobs(("CG", 16))
        (d,) = sns.schedule_point(cluster, PendingQueue(jobs), 0.0)
        gauges = cluster.gauge_columns()
        mixes = cluster.mixes
        for nid in d.placement.node_ids:
            # Job 0 is the node's only resident: all allocated ways are
            # its dedicated ways.
            assert gauges[2, nid] == d.placement.dedicated_ways
            assert mixes.free_ways[mixes.mix[nid]] \
                == 20 - d.placement.dedicated_ways

    def test_bandwidth_booked(self, sns, cluster_spec):
        cluster = ClusterState(cluster_spec, partitioned=True)
        jobs = make_jobs(("MG", 16))
        (d,) = sns.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.placement.booked_bw > 0
        nid = d.placement.node_ids[0]
        assert cluster.gauge_columns()[1, nid] == pytest.approx(
            d.placement.booked_bw
        )

    def test_falls_back_to_suboptimal_scale(self, sns, cluster_spec):
        cluster = ClusterState(cluster_spec, partitioned=True)
        # Occupy 2 of 4 nodes fully: CG's ideal 2x still fits on the
        # remaining two; occupy 3 to force 1x.
        for nid in range(3):
            cluster.place_slices([nid], 100 + nid, get_program("EP"), [28],
                                 18, 0.0, 1)
        jobs = make_jobs(("CG", 16))
        (d,) = sns.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert d.scale_factor == 1
        assert d.placement.node_ids == (3,)

    def test_respects_alpha_in_way_demand(self, cluster_spec):
        strict = SpreadNShareScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=True)
        jobs = [Job(job_id=0, program=get_program("CG"), procs=16, alpha=1.0)]
        (d_strict,) = strict.schedule_point(cluster, PendingQueue(jobs), 0.0)

        loose = SpreadNShareScheduler(cluster_spec)
        cluster2 = ClusterState(cluster_spec, partitioned=True)
        jobs2 = [Job(job_id=0, program=get_program("CG"), procs=16, alpha=0.7)]
        (d_loose,) = loose.schedule_point(cluster2, PendingQueue(jobs2), 0.0)
        assert d_loose.placement.dedicated_ways < d_strict.placement.dedicated_ways

    def test_delays_job_when_nothing_fits(self, sns, cluster_spec):
        cluster = ClusterState(cluster_spec, partitioned=True)
        for nid in range(4):
            cluster.place_slices([nid], 100 + nid, get_program("EP"), [28],
                                 18, 0.0, 1)
        jobs = make_jobs(("CG", 16))
        assert sns.schedule_point(cluster, PendingQueue(jobs), 0.0) == []
        assert jobs[0].times_passed_over == 1

    def test_resource_compatible_colocation(self, sns, cluster_spec):
        """A bandwidth hog and a cache hog fit on one node because their
        demands are complementary — the SNS premise (Fig 9)."""
        cluster = ClusterState(cluster_spec, partitioned=True)
        jobs = make_jobs(("MG", 16), ("NW", 16))
        decisions = sns.schedule_point(cluster, PendingQueue(jobs), 0.0)
        assert len(decisions) == 2


class TestAgingQueue:
    def test_skipped_jobs_age(self, cluster_spec):
        policy = CompactExclusiveScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        jobs = make_jobs(*[("WC", 28)] * 6)
        policy.schedule_point(cluster, PendingQueue(jobs), 0.0)
        waiting = [j for j in jobs if j.times_passed_over > 0]
        assert len(waiting) == 2  # 4 placed, 2 aged

    def test_aged_job_blocks_queue(self, cluster_spec):
        config = SchedulerConfig(age_limit=1)
        policy = CompactExclusiveScheduler(cluster_spec, config)
        cluster = ClusterState(cluster_spec, partitioned=False)
        # Fill the cluster except one node.
        for nid in range(3):
            cluster.place_slices([nid], 100 + nid, get_program("EP"), [28],
                                 20, 0.0, 1)
        big = make_jobs(("MG", 28 * 2))[0]   # needs 2 idle nodes
        big.times_passed_over = 1            # already at the age limit
        small = make_jobs(("EP", 16), start_id=1)[0]
        decisions = policy.schedule_point(cluster, PendingQueue([big, small]), 0.0)
        # Head-of-line blocking: the small job must NOT jump the queue.
        assert decisions == []

    def test_aged_job_ranks_first(self, cluster_spec):
        policy = CompactExclusiveScheduler(cluster_spec)
        cluster = ClusterState(cluster_spec, partitioned=False)
        for nid in range(3):
            cluster.place_slices([nid], 100 + nid, get_program("EP"), [28],
                                 20, 0.0, 1)
        old = make_jobs(("EP", 16))[0]
        old.times_passed_over = 5
        new = make_jobs(("EP", 16), start_id=1)[0]
        decisions = policy.schedule_point(cluster, PendingQueue([new, old]), 0.0)
        assert [d.job.job_id for d in decisions] == [0]
