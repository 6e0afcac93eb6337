"""Simulation isolation: every layer owns its own caches and counters
(the cluster its view cache and arbitration-kernel counts, the policy
its demand cache and curve-query counts, the runtime its loop counts),
so simulations never observe each other, even stepped in alternation;
plus cache eviction, counter plumbing and the removed cache-mode
switches (DESIGN.md §9)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.catalog import get_program
from repro.cli import build_parser
from repro.config import RetryPolicy, SimConfig, TraceConfig
from repro.experiments.parallel import run_grid
from repro.faults.plan import FaultPlan
from repro.hardware.topology import ClusterSpec
from repro.obs import decision_stream, trace_lines
from repro.scheduling import sns as sns_module
from repro.sim import cluster as cluster_module
from repro.sim.cluster import ClusterState
from repro.sim.job import Job
from repro.sim.runtime import Simulation
from repro.workloads.sequences import random_sequence


class TestClusterIsolation:
    """Two clusters never observe each other's entries or stats."""

    def test_caches_and_stats_are_private(self):
        spec = ClusterSpec(num_nodes=2)
        mg = get_program("MG")
        a = ClusterState(spec)
        b = ClusterState(spec)
        for cluster in (a, b):
            cluster.place_slices(np.array([0]), 1, mg, np.array([16]),
                                 ways=10, bw=40.0, n_nodes=1)
        a.arbitration(0)
        assert a.counters["batch_calls"] == 1
        assert a.counters["arb_nodes_solved"] == 1
        # b saw none of it: its first solve of the same signature is a
        # kernel call, not a hit in a's view cache.
        assert b.counters["batch_calls"] == 0
        b.arbitration(0)
        assert b.counters["arb_nodes_solved"] == 1
        assert b.counters["view_cache_hits"] == 0
        assert b.arbitration(0) == a.arbitration(0)

    def test_simulations_get_fresh_clusters(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=11, n_jobs=6)

        def build():
            from repro.workloads.sequences import clone_jobs
            return Simulation.from_policy_name(
                "SNS", spec, clone_jobs(jobs), sim_config=SimConfig(),
            )

        s1, s2 = build(), build()
        assert s1.cluster is not s2.cluster
        assert s1.policy is not s2.policy
        r1, r2 = s1.run(), s2.run()
        # Absolute per-run counters: the second run cannot have been
        # warmed by the first, so the kernel stats agree exactly.
        assert r1.counters == r2.counters


class TestEviction:
    def test_evicted_values_stay_bit_identical(self, monkeypatch):
        """The view cache and the SNS demand cache clear wholesale at
        ``MAX_ENTRIES``; a run that evicts constantly is bit-identical
        to one that never does."""
        solo = _build(5)
        baseline = _observe(solo.run())
        # The premise: unbounded, both caches outgrow the tiny limit.
        assert len(solo.cluster._view_cache) > 2
        assert len(solo.policy._demand_cache) > 2
        sim = _build(5)
        monkeypatch.setattr(cluster_module, "MAX_ENTRIES", 2)
        monkeypatch.setattr(sns_module, "MAX_ENTRIES", 2)
        result = sim.run()
        assert len(sim.cluster._view_cache) <= 2
        assert len(sim.policy._demand_cache) <= 2
        assert _observe(result) == baseline


class TestRecycledIds:
    def test_colliding_program_ids_change_nothing(self, monkeypatch):
        """The view cache and the SNS demand cache key programs by
        ``id()`` and check identity on a hit, so an entry left by a
        program whose id was recycled is a miss.  With every program's
        id made equal, a staggered SNS run is unchanged: its light
        programs book the same ways on one node, so their mixes share a
        signature but for the program."""
        names = ("WC", "EP", "HC", "GAN", "MG", "EP", "WC", "CG")

        def run():
            jobs = [Job(job_id=i, program=get_program(name), procs=28,
                        submit_time=60.0 * i)
                    for i, name in enumerate(names)]
            return _observe(Simulation.from_policy_name(
                "SNS", ClusterSpec(num_nodes=8), jobs,
                sim_config=SimConfig(trace=TraceConfig(level="decisions")),
            ).run())

        baseline = run()
        for module in (cluster_module, sns_module):
            monkeypatch.setattr(module, "id", lambda obj: 0, raising=False)
        assert run() == baseline


class TestStatsPlumbing:
    def test_result_counters_match_owners_exactly(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=3, n_jobs=8)
        sim = Simulation.from_policy_name("SNS", spec, jobs)
        result = sim.run()
        # Each batched-kernel counter sits with the layer that bumps it.
        assert {"batch_calls", "batch_slices", "fabric_link_refreshes",
                "fabric_route_evals"} <= sim.cluster.counters.keys()
        assert "batch_nodes" not in result.counters
        assert "vec_curve_evals" in sim.policy.counters
        assert "vec_finish_updates" in sim._counters
        # The run exercised the kernels.
        assert sim.cluster.counters["batch_calls"] > 0
        assert sim.policy.counters["vec_curve_evals"] > 0
        # Every owner's counters reach the result whole.
        for owner in (sim.cluster.counters, sim.policy.counters,
                      sim._counters):
            for key, value in owner.items():
                assert result.counters[key] == value

    def test_reference_run_reports_zero_kernel_traffic(self, monkeypatch):
        """The reference of record, the oracle, calls no batched kernel:
        with every one of them broken it still replays the fast path's
        decisions and speeds."""
        from repro.perfmodel import batch
        from tests.against_oracle import decision_lines, fast_core, oracle_of

        core = fast_core("SNS", ClusterSpec(num_nodes=4),
                         random_sequence(seed=3, n_jobs=8))
        fast = decision_lines(core.run().trace.events)
        assert core.cluster.counters["batch_calls"] > 0

        def broken(*args, **kwargs):
            raise AssertionError("the oracle called a batched kernel")

        monkeypatch.setattr(batch, "arbitrate_nodes", broken)
        oracle = oracle_of(core)
        assert decision_lines(oracle.records) == fast
        assert not oracle.mismatches


def _ce_sim(config: SimConfig) -> Simulation:
    spec = ClusterSpec(num_nodes=1)
    jobs = [Job(job_id=0, program=get_program("EP"), procs=8)]
    return Simulation.from_policy_name("CE", spec, jobs, sim_config=config)


class TestCacheModeResolution:
    """There is one mode: every switch that once picked an unmemoized
    reference path is gone."""

    def test_cache_mode_knob_is_gone(self):
        with pytest.raises(TypeError):
            SimConfig(perf_caches=False)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--no-caches"])

    def test_perf_context_is_gone(self):
        """The per-simulation counter wrapper was deleted: each counter
        lives with the layer that bumps it, and a cluster takes no
        context."""
        with pytest.raises(ImportError):
            from repro.perfmodel import context  # noqa: F401
        with pytest.raises(TypeError):
            ClusterState(ClusterSpec(num_nodes=1), ctx=object())

    def test_env_shim_is_gone(self, monkeypatch):
        """The deprecated ``REPRO_DISABLE_PERF_CACHES`` kill-switch was
        removed after its one deprecation cycle; the variable is now
        ignored: the run and its kernel counters are unchanged."""
        def run():
            return _ce_sim(SimConfig()).run()

        plain = run()
        monkeypatch.setenv("REPRO_DISABLE_PERF_CACHES", "1")
        shimmed = run()
        assert shimmed.counters == plain.counters
        assert shimmed.makespan == plain.makespan

    def test_memo_facade_is_gone(self):
        """The deprecated process-global ``perfmodel.memo`` facade was
        removed after its one deprecation cycle; kernel state lives with
        each simulation's own layers only."""
        with pytest.raises(ImportError):
            import repro.perfmodel.memo  # noqa: F401


def _build(seed, faults=False):
    """One independent SNS simulation with a decisions-level tracer,
    optionally under a seeded fault plan."""
    plan = FaultPlan.from_mtbf(
        seed=seed, num_nodes=8, mtbf_s=1500.0, mttr_s=120.0,
        horizon_s=2000.0, retry=RetryPolicy(max_retries=3, backoff_s=30.0),
    ) if faults else None
    return Simulation.from_policy_name(
        "SNS", ClusterSpec(num_nodes=8),
        random_sequence(seed=seed, n_jobs=10),
        sim_config=SimConfig(trace=TraceConfig(level="decisions")),
        fault_plan=plan,
    )


def _observe(result):
    """Results plus the decision-level stream, as comparable values."""
    return (
        result.makespan,
        result.mean_turnaround(),
        sorted((j.job_id, j.start_time, j.finish_time)
               for j in result.finished_jobs),
        list(trace_lines(decision_stream(result.trace.events))),
    )


def _step_interleaved(sims):
    """Advance every simulation one event batch per round, in one
    thread, until all drain; then finalize each."""
    for sim in sims:
        sim.start()
    live = list(sims)
    while live:
        live = [sim for sim in live if sim.step()]
    return [sim.finalize() for sim in sims]


class TestInterleavedStepping:
    """Simulations stepped alternately, one event batch each, are
    bit-identical to solo runs — the whole point of killing
    process-global kernel state.  Deterministic: every event boundary is
    an interleaving point, which a GIL-bound thread pool never
    guaranteed."""

    @pytest.mark.parametrize("faults", [True, False])
    def test_interleaved_matches_solo(self, faults):
        tasks = [(seed, faults) for seed in (1, 5, 9, 13)]
        solo = [_observe(_build(*t).run()) for t in tasks]
        results = _step_interleaved([_build(*t) for t in tasks])
        assert [_observe(r) for r in results] == solo


def _run_point(task):
    """One grid point: an independent simulation, private state."""
    return _observe(_build(*task).run())


def _boom(task):
    raise ValueError(f"boom {task}")


class TestThreadInterleaving:
    """Simulation grid points through :func:`run_grid`: the serial path
    keeps task order, and a worker's error reaches the caller."""

    def test_serial_fallback_and_order(self):
        tasks = [(3, False), (4, True)]
        expected = [_run_point(t) for t in tasks]
        assert run_grid(_run_point, tasks, jobs=1) == expected
        assert run_grid(_run_point, tasks) == expected

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            run_grid(_boom, [1, 2], jobs=2)
        with pytest.raises(ValueError):
            run_grid(_boom, [1, 2], jobs=1)
