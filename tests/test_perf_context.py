"""PerfContext ownership: per-simulation kernel state, eviction policy,
stats plumbing, cache-mode resolution, and bit-identity of simulations
stepped in alternation (DESIGN.md §9)."""

from __future__ import annotations

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig, TraceConfig
from repro.experiments.parallel import run_grid
from repro.hardware.topology import ClusterSpec
from repro.obs import decision_stream, trace_lines
from repro.perfmodel.context import PerfContext, resolve_cache_mode
from repro.sim.job import Job
from repro.sim.runtime import Simulation
from repro.workloads.sequences import random_sequence


class TestContextIsolation:
    """Two contexts never observe each other's entries, stats, or mode."""

    def test_caches_and_stats_are_private(self):
        spec = ClusterSpec(num_nodes=2).node
        program = get_program("MG")
        a, b = PerfContext(), PerfContext()
        a.demand_gbps_per_proc(program, 4.0, 1, spec.bandwidth.core_peak)
        a.demand_gbps_per_proc(program, 4.0, 1, spec.bandwidth.core_peak)
        assert a.cache_stats()["demand"] == {
            "hits": 1, "misses": 1, "size": 1
        }
        # b saw none of it.
        assert b.cache_stats()["demand"] == {
            "hits": 0, "misses": 0, "size": 0
        }
        # First call on b is a miss even though a cached the same key.
        b.demand_gbps_per_proc(program, 4.0, 1, spec.bandwidth.core_peak)
        assert b.cache_stats()["demand"]["misses"] == 1
        assert b.cache_stats()["demand"]["hits"] == 0

    def test_enabled_flag_is_private(self):
        a, b = PerfContext(enabled=True), PerfContext(enabled=True)
        with a.disabled():
            assert not a.enabled
            assert b.enabled
        assert a.enabled

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

    def test_clear_resets_everything(self):
        spec = ClusterSpec(num_nodes=2).node
        ctx = PerfContext()
        ctx.demand_gbps_per_proc(get_program("EP"), 2.0, 1,
                                 spec.bandwidth.core_peak)
        ctx.batch_counters["batch_calls"] += 3
        ctx.clear()
        assert all(
            stats == {"hits": 0, "misses": 0, "size": 0}
            for stats in ctx.cache_stats().values()
        )
        assert ctx.batch_counters["batch_calls"] == 0


class TestEviction:
    def test_per_context_max_entries(self):
        spec = ClusterSpec(num_nodes=2).node
        program = get_program("EP")
        small = PerfContext(max_entries=4)
        big = PerfContext()  # default MAX_ENTRIES
        for i in range(6):
            cap = 1.0 + i
            small.demand_gbps_per_proc(program, cap, 1,
                                       spec.bandwidth.core_peak)
            big.demand_gbps_per_proc(program, cap, 1,
                                     spec.bandwidth.core_peak)
        # The small context hit its ceiling and dumped wholesale at
        # least once; the big one kept every entry.
        assert small.cache_stats()["demand"]["size"] < 6
        assert big.cache_stats()["demand"]["size"] == 6

    def test_evicted_values_stay_bit_identical(self):
        spec = ClusterSpec(num_nodes=2).node
        program = get_program("MG")
        tiny = PerfContext(max_entries=2)
        reference = PerfContext(enabled=False)
        for i in range(8):
            cap = 0.5 + 0.25 * i
            assert tiny.demand_gbps_per_proc(
                program, cap, 1, spec.bandwidth.core_peak
            ) == reference.demand_gbps_per_proc(
                program, cap, 1, spec.bandwidth.core_peak
            )


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
        for name in ("demand", "rate", "net", "supply"):
            assert f"memo_{name}_hits" in result.counters
            assert f"memo_{name}_misses" in result.counters
        for key in ("batch_calls", "batch_nodes", "batch_slices"):
            assert key in result.counters

    def test_reference_run_reports_zero_kernel_traffic(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=3, n_jobs=8)
        result = Simulation.from_policy_name(
            "SNS", spec, jobs,
            sim_config=SimConfig(perf_caches=False),
        ).run()
        assert result.counters["memo_demand_hits"] == 0
        assert result.counters["memo_demand_misses"] == 0
        assert result.counters["batch_calls"] == 0


class TestCacheModeResolution:
    def test_explicit_field_wins(self):
        assert resolve_cache_mode(True) is True
        assert resolve_cache_mode(False) is False

    def test_default_is_enabled(self):
        assert resolve_cache_mode(None) is True

    def test_env_shim_is_gone(self, monkeypatch):
        """The deprecated ``REPRO_DISABLE_PERF_CACHES`` kill-switch was
        removed after its one deprecation cycle; the variable is now
        ignored and ``SimConfig.perf_caches`` is the only control."""
        monkeypatch.setenv("REPRO_DISABLE_PERF_CACHES", "1")
        assert resolve_cache_mode(None) is True
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
