"""PerfContext ownership: per-simulation kernel state, cache eviction,
stats plumbing, cache-mode selection, and bit-identity of simulations
stepped in alternation (DESIGN.md §9)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig, TraceConfig
from repro.experiments.parallel import run_grid
from repro.hardware.topology import ClusterSpec
from repro.obs import decision_stream, trace_lines
from repro.perfmodel.context import PerfContext
from repro.scheduling import sns as sns_module
from repro.sim import cluster as cluster_module
from repro.sim.cluster import ClusterState
from repro.sim.job import Job
from repro.sim.runtime import Simulation
from repro.workloads.sequences import random_sequence


class TestContextIsolation:
    """Two contexts never observe each other's entries, stats, or mode."""

    def test_caches_and_stats_are_private(self):
        spec = ClusterSpec(num_nodes=2)
        mg = get_program("MG")
        a = ClusterState(spec, ctx=PerfContext())
        b = ClusterState(spec, ctx=PerfContext())
        for cluster in (a, b):
            cluster.place_slices(np.array([0]), 1, mg, np.array([16]),
                                 ways=10, bw=40.0, n_nodes=1)
        a.arbitration(0)
        assert a.ctx.batch_counters["batch_calls"] == 1
        assert a.counters["arb_nodes_solved"] == 1
        # b saw none of it: its first solve of the same signature is a
        # kernel call, not a hit in a's view cache.
        assert b.ctx.batch_counters["batch_calls"] == 0
        b.arbitration(0)
        assert b.counters["arb_nodes_solved"] == 1
        assert b.counters["view_cache_hits"] == 0
        assert b.arbitration(0) == a.arbitration(0)

    def test_enabled_flag_is_private(self):
        a, b = PerfContext(enabled=False), PerfContext()
        assert not a.enabled
        assert b.enabled
        spec = ClusterSpec(num_nodes=1)
        assert not ClusterState(spec, ctx=a).ctx.enabled
        assert ClusterState(spec, ctx=b).ctx.enabled

    def test_simulations_get_fresh_contexts(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=11, n_jobs=6)

        def build():
            from repro.workloads.sequences import clone_jobs
            return Simulation.from_policy_name(
                "SNS", spec, clone_jobs(jobs),
                sim_config=SimConfig(perf_caches=True),
            )

        s1, s2 = build(), build()
        assert s1.ctx is not s2.ctx
        assert s1.cluster.ctx is s1.ctx
        r1, r2 = s1.run(), s2.run()
        # Absolute per-run counters: the second run cannot have been
        # warmed by the first, so the kernel stats agree exactly.
        assert r1.counters == r2.counters


class TestEviction:
    def test_evicted_values_stay_bit_identical(self, monkeypatch):
        """The view cache and the SNS demand cache clear wholesale at
        ``MAX_ENTRIES``; a run that evicts constantly is bit-identical
        to one that never does."""
        solo = _build(5, True)
        baseline = _observe(solo.run())
        # The premise: unbounded, both caches outgrow the tiny limit.
        assert len(solo.cluster._view_cache) > 2
        assert len(solo.policy._demand_cache) > 2
        sim = _build(5, True)
        monkeypatch.setattr(cluster_module, "MAX_ENTRIES", 2)
        monkeypatch.setattr(sns_module, "MAX_ENTRIES", 2)
        result = sim.run()
        assert len(sim.cluster._view_cache) <= 2
        assert len(sim.policy._demand_cache) <= 2
        assert _observe(result) == baseline


class TestStatsPlumbing:
    def test_result_counters_match_context_exactly(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=3, n_jobs=8)
        sim = Simulation.from_policy_name(
            "SNS", spec, jobs,
            sim_config=SimConfig(perf_caches=True),
        )
        result = sim.run()
        expected = sim.ctx.counters()
        assert expected  # the run exercised the kernels
        for key, value in expected.items():
            assert result.counters[key] == value
        # The full key scheme is present in the result.
        for key in ("batch_calls", "batch_nodes", "batch_slices"):
            assert key in result.counters

    def test_reference_run_reports_zero_kernel_traffic(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=3, n_jobs=8)
        result = Simulation.from_policy_name(
            "SNS", spec, jobs,
            sim_config=SimConfig(perf_caches=False),
        ).run()
        assert result.counters["batch_calls"] == 0


def _ce_sim(config: SimConfig) -> Simulation:
    spec = ClusterSpec(num_nodes=1)
    jobs = [Job(job_id=0, program=get_program("EP"), procs=8)]
    return Simulation.from_policy_name("CE", spec, jobs, sim_config=config)


class TestCacheModeResolution:
    def test_explicit_field_wins(self):
        assert _ce_sim(SimConfig(perf_caches=True)).ctx.enabled is True
        assert _ce_sim(SimConfig(perf_caches=False)).ctx.enabled is False

    def test_default_is_enabled(self):
        assert SimConfig().perf_caches is True
        assert _ce_sim(SimConfig()).ctx.enabled is True
        assert PerfContext().enabled is True

    def test_env_shim_is_gone(self, monkeypatch):
        """The deprecated ``REPRO_DISABLE_PERF_CACHES`` kill-switch was
        removed after its one deprecation cycle; the variable is now
        ignored and ``SimConfig.perf_caches`` is the only control."""
        monkeypatch.setenv("REPRO_DISABLE_PERF_CACHES", "1")
        spec = ClusterSpec(num_nodes=1)
        jobs = [Job(job_id=0, program=get_program("EP"), procs=8)]
        sim = Simulation.from_policy_name("CE", spec, jobs,
                                          sim_config=SimConfig())
        assert sim.ctx.enabled is True

    def test_memo_facade_is_gone(self):
        """The deprecated process-global ``perfmodel.memo`` facade was
        removed after its one deprecation cycle; kernel state lives on
        per-simulation :class:`PerfContext` objects only."""
        with pytest.raises(ImportError):
            import repro.perfmodel.memo  # noqa: F401


def _build(seed, caches):
    """One independent SNS simulation with a decisions-level tracer."""
    return Simulation.from_policy_name(
        "SNS", ClusterSpec(num_nodes=8),
        random_sequence(seed=seed, n_jobs=10),
        sim_config=SimConfig(perf_caches=caches,
                             trace=TraceConfig(level="decisions")),
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

    @pytest.mark.parametrize("caches", [True, False])
    def test_interleaved_matches_solo(self, caches):
        tasks = [(seed, caches) for seed in (1, 5, 9, 13)]
        solo = [_observe(_build(*t).run()) for t in tasks]
        results = _step_interleaved([_build(*t) for t in tasks])
        assert [_observe(r) for r in results] == solo

    def test_mixed_cache_modes_interleave_safely(self):
        """Fast and reference simulations stepping in turn cannot flip
        each other's mode — and both match their solo twins."""
        tasks = [(7, True), (7, False), (21, True), (21, False)]
        solo = [_observe(_build(*t).run()) for t in tasks]
        interleaved = [
            _observe(r) for r in _step_interleaved([_build(*t)
                                                    for t in tasks])
        ]
        assert interleaved == solo
        # Same seed, different mode: still bit-identical results.
        assert interleaved[0] == interleaved[1]
        assert interleaved[2] == interleaved[3]


def _run_point(task):
    """One grid point: an independent simulation, private context."""
    return _observe(_build(*task).run())


def _boom(task):
    raise ValueError(f"boom {task}")


class TestThreadInterleaving:
    """Simulation grid points through :func:`run_grid`: the serial path
    keeps task order, and a worker's error reaches the caller."""

    def test_serial_fallback_and_order(self):
        tasks = [(3, True), (4, True)]
        expected = [_run_point(t) for t in tasks]
        assert run_grid(_run_point, tasks, jobs=1) == expected
        assert run_grid(_run_point, tasks) == expected

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            run_grid(_boom, [1, 2], jobs=2)
        with pytest.raises(ValueError):
            run_grid(_boom, [1, 2], jobs=1)
