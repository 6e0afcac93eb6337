"""The perf fast paths must be invisible: memoized and cache-disabled
runs produce bit-identical results, caches evict on mutation, and the
process-parallel grid matches the serial one (DESIGN.md, "Performance
architecture").  Cache mode is a per-simulation choice
(``SimConfig.perf_caches`` → a private :class:`PerfContext`), so the
two modes run side by side with no global flag to flip or reset."""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.experiments.ablations import run_ablation
from repro.experiments.common import run_all_policies
from repro.experiments.fig14_throughput import run_fig14
from repro.experiments.fig20_large_cluster import run_fig20
from repro.experiments.parallel import resolve_jobs, run_grid
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.context import PerfContext
from repro.sim.cluster import ClusterState
from repro.workloads.sequences import random_sequence
from repro.workloads.trace import SyntheticTraceConfig, synthesize_trace


def _run_sequence_results(seed: int, caches=True):
    cluster = ClusterSpec(num_nodes=8)
    jobs = random_sequence(seed=seed, n_jobs=14)
    return run_all_policies(
        cluster, jobs,
        sim_config=SimConfig(perf_caches=caches),
    )


def _run_sequence_all_policies(seed: int, caches=True):
    runs = _run_sequence_results(seed, caches=caches)
    return {
        policy: (
            result.makespan,
            result.mean_turnaround(),
            sorted((j.job_id, j.start_time, j.finish_time)
                   for j in result.finished_jobs),
        )
        for policy, result in runs.items()
    }


class TestMemoizedEquivalence:
    """Cached vs cache-disabled runs are bit-identical."""

    @pytest.mark.parametrize("seed", [3, 2019])
    def test_fig14_style_sequences(self, seed):
        fast = _run_sequence_all_policies(seed, caches=True)
        reference = _run_sequence_all_policies(seed, caches=False)
        assert fast == reference

    def test_fig20_smoke_point(self):
        config = SyntheticTraceConfig(
            n_jobs=150, duration_hours=40, max_width_nodes=128
        )
        jobs = synthesize_trace(seed=42, scaling_ratio=0.9, config=config)
        cluster = ClusterSpec(num_nodes=512)

        def replay(caches):
            runs = run_all_policies(
                cluster, jobs, policy_names=("CE", "SNS"),
                sim_config=SimConfig(max_sim_time=1e12, perf_caches=caches),
            )
            return {
                p: (r.makespan, r.mean_turnaround()) for p, r in runs.items()
            }

        assert replay(True) == replay(False)

    def test_congested_queue_skip_index_equivalence(self):
        """Fast == reference on a congested queue: blocked jobs are
        re-tried at every scheduling point in both modes."""
        from repro.scheduling.sns import SpreadNShareScheduler
        from repro.sim.job import Job
        from repro.sim.runtime import Simulation
        from repro.apps.catalog import get_program

        def replay(caches):
            spec = ClusterSpec(num_nodes=2)
            ep, mg = get_program("EP"), get_program("MG")
            jobs = [
                Job(job_id=i, program=(ep if i % 2 else mg), procs=28,
                    submit_time=float(i))
                for i in range(8)
            ]
            result = Simulation(
                spec, SpreadNShareScheduler(spec), jobs,
                SimConfig(perf_caches=caches),
            ).run()
            return result

        fast = replay(True)
        reference = replay(False)
        assert fast.makespan == reference.makespan
        assert sorted(
            (j.job_id, j.start_time, j.finish_time)
            for j in fast.finished_jobs
        ) == sorted(
            (j.job_id, j.start_time, j.finish_time)
            for j in reference.finished_jobs
        )

    def test_stats_report_hits(self):
        runs = _run_sequence_results(7, caches=True)
        for result in runs.values():
            # Every policy's run exercised the batched kernel and
            # reused solved signatures through the view cache.
            assert result.counters["arb_nodes_solved"] > 0
            assert result.counters["view_cache_hits"] > 0
        # SNS re-reads its demand candidates for re-tried jobs.
        assert runs["SNS"].counters["demand_cache_hits"] > 0


class TestBatchedKernelEquivalence:
    """The columnar batched kernel must be bit-identical to the scalar
    reference on randomized slice tables, in both cache modes."""

    def _random_tables(self, seed: int, n_tables: int = 40):
        import random

        from repro.apps.catalog import PROGRAMS
        from repro.perfmodel.contention import Slice

        rng = random.Random(seed)
        spec = ClusterSpec(num_nodes=4).node
        programs = list(PROGRAMS.values())
        tables = []
        next_jid = 0
        for _ in range(n_tables):
            n_slices = rng.randint(0, 4)
            slices = []
            free_cores = spec.cores
            free_ways = float(spec.llc_ways)
            for _ in range(n_slices):
                if free_cores < 1:
                    break
                procs = rng.randint(1, min(free_cores, 16))
                free_cores -= procs
                ways = round(rng.uniform(1.0, max(1.5, free_ways / 2)), 3)
                free_ways = max(0.5, free_ways - ways)
                slices.append(Slice(
                    job_id=next_jid,
                    program=rng.choice(programs),
                    procs=procs,
                    effective_ways=ways,
                    n_nodes=rng.choice((1, 1, 2, 4, 8)),
                    bw_cap=(
                        None if rng.random() < 0.7
                        else round(rng.uniform(1.0, 40.0), 3)
                    ),
                ))
                next_jid += 1
            tables.append(slices)
        return spec, tables

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_batched_matches_scalar_reference(self, seed):
        from repro.perfmodel import batch
        from repro.perfmodel.contention import (
            arbitrate_node,
            node_network_load,
        )

        spec, tables = self._random_tables(seed)
        batched = batch.arbitrate_nodes(PerfContext(), spec, tables)
        reference = [
            (arbitrate_node(spec, slices), node_network_load(spec, slices))
            for slices in tables
        ]
        assert batched == reference  # bit-identical grants and net loads

    def test_batched_matches_itself_across_cache_modes(self):
        from repro.perfmodel import batch

        spec, tables = self._random_tables(99)
        fast = batch.arbitrate_nodes(PerfContext(enabled=True), spec, tables)
        reference = batch.arbitrate_nodes(
            PerfContext(enabled=False), spec, tables
        )
        assert fast == reference

    def test_batched_rejects_overcommitted_node(self):
        from repro.apps.catalog import get_program
        from repro.errors import HardwareModelError
        from repro.perfmodel import batch
        from repro.perfmodel.contention import Slice

        spec = ClusterSpec(num_nodes=1).node
        overfull = [
            Slice(job_id=i, program=get_program("EP"), procs=spec.cores,
                  effective_ways=2.0)
            for i in range(2)
        ]
        with pytest.raises(HardwareModelError):
            batch.arbitrate_nodes(PerfContext(), spec, [overfull])


class TestArbitrationCacheInvalidation:
    """place/remove must move the node to a fresh resident mix, whose
    view is resolved anew."""

    @pytest.fixture
    def cluster(self, program):
        state = ClusterState(
            ClusterSpec(num_nodes=4), ctx=PerfContext(enabled=True)
        )
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
        reference = cluster._arbitrate(0)
        assert cached == reference

    def test_counters_consistent_with_fresh_sums(self, cluster):
        self._place(cluster, 1, 1)
        self._place(cluster, 1, 2, procs=6)
        cluster.remove_slices([1], 1)
        node = cluster.node(1)
        sc = cluster.scols
        n = node.cat_partitions
        assert node.used_cores == sum(sc.procs[1, :n].tolist())
        assert node.booked_bw == sum(sc.bw[1, :n].tolist())
        assert node.booked_net == sum(sc.net[1, :n].tolist())
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
            cluster.place_slices(nodes, job.job_id, job.program, procs,
                                 ways, 0.0, len(nodes))
            out.append(Decision(job, Placement(nodes, procs, ways, 0.0), 1))
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

    def _run(self, caches):
        from repro.apps.catalog import get_program
        from repro.sim.job import Job
        from repro.sim.runtime import SchedulerCore

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
        core = SchedulerCore(
            ClusterSpec(num_nodes=width + 8), _PresetPolicy(plan), jobs,
            SimConfig(perf_caches=caches),
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

    def test_place_remove_refresh_resolve_few_mixes(self):
        calls, times = self._run(caches=True)
        places = [c for c in calls if c[0] == "place_slices"]
        removes = [c for c in calls if c[0] == "remove_slices"]
        arbs = [c for c in calls if c[0] == "arbitration_batch"]
        assert [c[1] for c in places] == [self.WIDTH, self.WIDTH]
        assert len(removes) == 2
        # Each batch is one transition per distinct (mix, procs) pair /
        # distinct mix — never one per node.
        for _, _, transitions in places + removes:
            assert 1 <= transitions <= 2
        # Each refresh resolves one representative node per distinct
        # mix over the refreshed placements.
        assert arbs and all(nodes <= 2 for _, nodes, _ in arbs)
        # And the dedupe changes nothing: the reference path agrees.
        assert times == self._run(caches=False)[1]


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
