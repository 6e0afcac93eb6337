"""The perf fast paths must be invisible: seeded runs replay the
decisions and speeds of the independent oracle (``tests/oracle``)
exactly, caches evict on mutation, and the process-parallel grid
matches the serial one (DESIGN.md, "Performance architecture")."""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.experiments.ablations import run_ablation
from repro.experiments.common import run_all_policies
from repro.experiments.fig14_throughput import run_fig14
from repro.experiments.fig20_large_cluster import run_fig20
from repro.experiments.parallel import resolve_jobs, run_grid
from repro.hardware.topology import ClusterSpec
from repro.sim.cluster import ClusterState
from repro.workloads.sequences import clone_jobs, random_sequence
from repro.workloads.trace import SyntheticTraceConfig, synthesize_trace
from tests.against_oracle import assert_matches_oracle, fast_core
from tests.oracle import bookings_from_meta, node_view


def _run_sequence_results(seed: int):
    cluster = ClusterSpec(num_nodes=8)
    jobs = random_sequence(seed=seed, n_jobs=14)
    return run_all_policies(cluster, jobs, sim_config=SimConfig())


class TestMemoizedEquivalence:
    """Fast-path runs replay the oracle's decisions and speeds."""

    @pytest.mark.parametrize("seed", [3, 2019])
    def test_fig14_style_sequences(self, seed):
        jobs = random_sequence(seed=seed, n_jobs=14)
        for policy in ("CE", "CS", "SNS"):
            assert_matches_oracle(fast_core(
                policy, ClusterSpec(num_nodes=8), clone_jobs(jobs)))

    def test_fig20_smoke_point(self):
        config = SyntheticTraceConfig(
            n_jobs=150, duration_hours=40, max_width_nodes=128
        )
        jobs = synthesize_trace(seed=42, scaling_ratio=0.9, config=config)
        for policy in ("CE", "SNS"):
            assert_matches_oracle(fast_core(
                policy, ClusterSpec(num_nodes=512), clone_jobs(jobs)))

    def test_congested_queue_skip_index_equivalence(self):
        """Fast == oracle on a congested queue: blocked jobs are
        re-tried at every scheduling point."""
        from repro.apps.catalog import get_program
        from repro.sim.job import Job

        ep, mg = get_program("EP"), get_program("MG")
        jobs = [
            Job(job_id=i, program=(ep if i % 2 else mg), procs=28,
                submit_time=float(i))
            for i in range(8)
        ]
        result, _ = assert_matches_oracle(
            fast_core("SNS", ClusterSpec(num_nodes=2), jobs))
        assert len(result.finished_jobs) == 8

    def test_stats_report_hits(self):
        runs = _run_sequence_results(7)
        for result in runs.values():
            # Every policy's run exercised the arbitration kernel and
            # reused solved signatures through the view cache.
            assert result.counters["arb_nodes_solved"] > 0
            assert result.counters["view_cache_hits"] > 0
        # SNS re-reads its demand candidates for re-tried jobs.
        assert runs["SNS"].counters["demand_cache_hits"] > 0


class TestArbitrationCacheInvalidation:
    """place/remove must move the node to a fresh resident mix, whose
    view is resolved anew."""

    @pytest.fixture
    def cluster(self, program):
        state = ClusterState(ClusterSpec(num_nodes=4))
        self.program = program
        return state

    @pytest.fixture
    def program(self):
        from repro.apps.catalog import get_program
        return get_program("MG")

    def _place(self, cluster, node_id, job_id, procs=4):
        cluster.place_slices(
            [node_id], job_id, self.program, [procs],
            cluster.spec.node.cache.min_ways, 10.0, 1,
        )

    def test_place_evicts_and_recomputes(self, cluster):
        self._place(cluster, 0, 1)
        jids1, _, _, effs1 = cluster.arbitration(0)
        assert jids1 == (1,)
        # Cached: same object back while the node is untouched.
        assert cluster.arbitration(0) is cluster.arbitration(0)
        self._place(cluster, 0, 2)
        jids2, _, _, effs2 = cluster.arbitration(0)
        assert set(jids2) == {1, 2}
        # Job 1's effective ways shrank when job 2 claimed dedicated ways.
        assert effs2[jids2.index(1)] < effs1[0]

    def test_one_node_mix_net_load_is_float(self, cluster):
        """A mix of one-node slices sums no network load, and its view
        still holds a float, as ``ArbitrationView`` declares."""
        self._place(cluster, 0, 1)
        self._place(cluster, 0, 2)
        assert type(cluster.arbitration(0)[2]) is float

    def test_remove_evicts(self, cluster):
        self._place(cluster, 0, 1)
        self._place(cluster, 0, 2)
        before = cluster.arbitration(0)
        cluster.remove_slices([0], 2)
        after = cluster.arbitration(0)
        assert after is not before
        assert after[0] == (1,)

    def test_views_match_reference_after_churn(self, cluster):
        self._place(cluster, 0, 1)
        self._place(cluster, 0, 2)
        cluster.remove_slices([0], 1)
        self._place(cluster, 0, 3, procs=2)
        cached = cluster.arbitration(0)
        mixes = cluster.mixes
        reference = node_view(cluster.spec.node,
                              mixes.keys[mixes.mix[0]],
                              bookings_from_meta(mixes.meta), True)
        assert cached == reference

    def test_counters_consistent_with_fresh_sums(self, cluster):
        self._place(cluster, 1, 1)
        self._place(cluster, 1, 2, procs=6)
        cluster.remove_slices([1], 1)
        mixes = cluster.mixes
        m = mixes.mix[1]
        key = mixes.keys[m]
        meta = mixes.meta
        assert [j for j, _ in key] == [2]
        assert cluster.spec.node.cores - mixes.free_cores[m] \
            == sum(p for _, p in key)
        assert mixes.booked_bw[m] == sum(meta[j][4] for j, _ in key)
        assert mixes.booked_net[m] == sum(meta[j][5] for j, _ in key)
        spec = cluster.spec.node
        assert (mixes.free_cores[m], mixes.free_ways[m], mixes.parts[m],
                len(key)) == (spec.cores - sum(p for _, p in key),
                              spec.llc_ways - meta[2][3], 1, 1)
        cluster.verify_index()
        cluster.verify_columns()


class _PresetPolicy:
    """Minimal policy: installs every pending job on a preset node map
    (job_id -> procs per node), in queue order."""

    partitioned = True
    enforce_bw = False
    share_residual = True

    def __init__(self, plan):
        self.plan = plan
        self.counters = {}

    def schedule_point(self, cluster, pending, now):
        from repro.sim.job import Placement
        from repro.sim.runtime import Decision

        out = []
        for job in pending.head(len(pending)):
            ppn = self.plan[job.job_id]
            nodes = list(ppn)
            procs = list(ppn.values())
            ways = cluster.spec.node.cache.min_ways
            corunners = cluster.place_slices(
                nodes, job.job_id, job.program, procs, ways, 0.0, len(nodes))
            out.append(Decision(job, Placement(nodes, procs, ways, 0.0), 1,
                                corunners=corunners))
        return out

    def on_job_finish(self, job, now):
        pass

    def on_job_evict(self, job, now):
        pass

    def set_profile_store_available(self, up):
        pass


class TestCohortMixDedupe:
    """A 1,024-node job over nodes sharing one prior resident mix costs
    O(distinct mixes), not O(nodes), in place, remove and refresh."""

    WIDTH = 1024

    def _plan(self):
        from repro.apps.catalog import get_program
        from repro.sim.job import Job

        width = self.WIDTH
        # Job 1 holds every node alone (one mix); job 2 then lands on
        # all of them with an uneven split — two process counts — and
        # finishes first, leaving job 1 alone again.
        plan = {
            1: {nid: 4 for nid in range(width)},
            2: {nid: 5 if nid < width // 2 else 4 for nid in range(width)},
        }
        mg = get_program("MG")
        jobs = [
            Job(job_id=1, program=mg, procs=4 * width),
            Job(job_id=2, program=mg, procs=sum(plan[2].values()),
                work_multiplier=0.25),
        ]
        return plan, jobs

    def _run(self):
        from repro.sim.runtime import SchedulerCore

        plan, jobs = self._plan()
        core = SchedulerCore(
            ClusterSpec(num_nodes=self.WIDTH + 8), _PresetPolicy(plan), jobs,
            SimConfig(),
        )
        cluster = core.cluster
        calls = []

        def spy(name):
            original = getattr(cluster, name)

            def wrapped(*args, **kwargs):
                before = cluster.counters["mix_transitions"]
                result = original(*args, **kwargs)
                calls.append((name, len(args[0]),
                              cluster.counters["mix_transitions"] - before))
                return result
            setattr(cluster, name, wrapped)

        for name in ("place_slices", "remove_slices", "arbitration_batch"):
            spy(name)
        result = core.run()
        return calls, [(j.start_time, j.finish_time) for j in result.jobs]

    def _expected_times(self):
        """Both jobs start at 0; job 2 runs beside job 1 until it
        finishes, then job 1 runs alone: the speeds from the oracle's
        per-node arbitration and the scalar ``job_time``, the progress
        integrated as the running-job table settles it."""
        from repro.perfmodel.execution import (
            NodeConditions,
            job_time,
            reference_time,
        )

        plan, (job1, job2) = self._plan()
        spec = ClusterSpec(num_nodes=1).node
        booking = {j.job_id: (j.program, len(plan[j.job_id]),
                              spec.cache.min_ways, 0.0)
                   for j in (job1, job2)}

        def speed(job, together):
            conds = []
            for nid, p in plan[job.job_id].items():
                view = node_view(spec, [(j, plan[j][nid]) for j in together],
                                 booking, True)
                i = view[0].index(job.job_id)
                conds.append(NodeConditions(
                    p, spec.cache.ways_to_mb(view[3][i]) / p, view[1][i],
                    net_load=view[2]))
            return reference_time(job.program, job.procs, spec) \
                / job_time(job.program, job.procs, conds, spec)

        work = [reference_time(j.program, j.procs, spec) * j.work_multiplier
                for j in (job1, job2)]
        t2 = 0.0 + work[1] / speed(job2, (1, 2))
        left = work[0] - speed(job1, (1, 2)) * t2
        return [(0.0, t2 + left / speed(job1, (1,))), (0.0, t2)]

    def test_place_remove_refresh_resolve_few_mixes(self):
        calls, times = self._run()
        places = [c for c in calls if c[0] == "place_slices"]
        removes = [c for c in calls if c[0] == "remove_slices"]
        arbs = [c for c in calls if c[0] == "arbitration_batch"]
        assert [c[1] for c in places] == [self.WIDTH, self.WIDTH]
        assert len(removes) == 2
        # Each batch is one transition per distinct (mix, procs) pair /
        # distinct mix — never one per node.
        for _, _, transitions in places + removes:
            assert 1 <= transitions <= 2
        # Each refresh resolves the distinct mixes the refreshed
        # placements hold.
        assert arbs and all(mids <= 2 for _, mids, _ in arbs)
        # And the dedupe changes nothing: the times are the per-node
        # physics integrated by hand.
        assert times == self._expected_times()


class TestParallelGrid:
    """run_grid fans out deterministically and falls back serially."""

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_results_in_task_order(self):
        assert run_grid(_square, [3, 1, 2], jobs=2) == [9, 1, 4]

    def test_serial_path_identical(self):
        tasks = list(range(5))
        expected = [_square(t) for t in tasks]
        assert run_grid(_square, tasks) == expected
        assert run_grid(_square, tasks, jobs=1) == expected

    def test_executors_agree(self):
        """The process pool returns exactly what the serial loop does."""
        tasks = [4, 2, 7, 1]
        assert run_grid(_square, tasks, jobs=2) == run_grid(_square, tasks)

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            run_grid(_explode, [1, 2], jobs=2)
        with pytest.raises(ValueError):
            run_grid(_explode, [1, 2])

    def test_fig14_parallel_matches_serial(self):
        serial = run_fig14(n_sequences=2)
        parallel = run_fig14(n_sequences=2, jobs=2)
        assert [o.throughput for o in serial.outcomes] == \
               [o.throughput for o in parallel.outcomes]
        assert [o.scaling_ratio for o in serial.outcomes] == \
               [o.scaling_ratio for o in parallel.outcomes]

    def test_ablation_parallel_matches_serial(self):
        variants = None  # default set
        serial = run_ablation(n_sequences=2, variants=variants)
        parallel = run_ablation(n_sequences=2, variants=variants, jobs=2)
        assert serial.outcomes == parallel.outcomes

    def test_fig20_parallel_matches_serial(self):
        config = SyntheticTraceConfig(
            n_jobs=100, duration_hours=40, max_width_nodes=64
        )
        serial = run_fig20(
            cluster_sizes=(256,), scaling_ratios=(0.9,), trace_config=config
        )
        parallel = run_fig20(
            cluster_sizes=(256,), scaling_ratios=(0.9,), trace_config=config,
            jobs=2,
        )
        assert serial.points == parallel.points


def _square(x):
    return x * x


def _explode(x):
    raise ValueError(f"boom {x}")
