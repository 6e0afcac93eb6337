"""Simulated PMU and the LLC-manipulation sampler."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import ProfileError
from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.execution import NodeConditions
from repro.profiling.pmu import PMUSample, read_pmu
from repro.profiling.sampler import SAMPLED_WAYS, sample_llc_curves

SPEC = NodeSpec()


class TestPMU:
    def test_counters_consistent_with_model(self):
        ep = get_program("EP")
        cond = NodeConditions(16, 4.375, 10.0)
        sample = read_pmu(ep, cond, 1, interval_s=5.0)
        # IPC derived from counters must equal the model's IPC.
        assert sample.ipc() == pytest.approx(
            ep.ipc(4.375, granted_bw_gbps=10.0 / 16)
        )

    def test_bandwidth_from_counters(self):
        mg = get_program("MG")
        cap = SPEC.cache.ways_to_mb(20.0) / 16
        demand = mg.demand_gbps_per_proc(cap, 1) * 16
        granted = min(demand, SPEC.bandwidth.aggregate(16))
        cond = NodeConditions(16, cap, granted)
        sample = read_pmu(mg, cond, 1)
        assert sample.bandwidth_gbps() == pytest.approx(granted, rel=1e-6)

    def test_interval_validation(self):
        ep = get_program("EP")
        cond = NodeConditions(4, 4.0, 1.0)
        with pytest.raises(ProfileError):
            read_pmu(ep, cond, 1, interval_s=0.0)

    def test_sample_validation(self):
        with pytest.raises(ProfileError):
            PMUSample(5.0, 1e9, 0.0, 0.0).ipc()
        with pytest.raises(ProfileError):
            PMUSample(0.0, 1.0, 1.0, 1.0).bandwidth_gbps()


class TestSampler:
    def test_sampled_ways_match_paper(self):
        assert SAMPLED_WAYS == (2, 4, 8, 20)

    def test_curves_span_2_to_20(self):
        curves = sample_llc_curves(get_program("CG"), 16, 1, SPEC)
        assert curves["ipc"].points[0][0] == 2.0
        assert curves["ipc"].points[-1][0] == 20.0

    def test_ipc_curve_nondecreasing_for_cache_sensitive(self):
        curves = sample_llc_curves(get_program("CG"), 16, 1, SPEC)
        ipc = curves["ipc"]
        values = [ipc(w) for w in range(2, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_insensitive_program_flat_curve(self):
        curves = sample_llc_curves(get_program("EP"), 16, 1, SPEC)
        ipc = curves["ipc"]
        assert ipc(2.0) == pytest.approx(ipc(20.0), rel=0.02)

    def test_bw_curve_is_per_process(self):
        curves = sample_llc_curves(get_program("MG"), 16, 1, SPEC)
        # MG's 16-process job saturates the node: per-proc ~ peak/16.
        bw20 = curves["bw"](20.0)
        assert bw20 == pytest.approx(SPEC.bandwidth.aggregate(16) / 16,
                                     rel=0.02)

    def test_multi_node_sampling_uses_per_node_procs(self):
        one = sample_llc_curves(get_program("CG"), 16, 1, SPEC)
        two = sample_llc_curves(get_program("CG"), 16, 2, SPEC)
        # With 8 procs per node each process sees more cache: higher IPC.
        assert two["ipc"](20.0) > one["ipc"](20.0)

    def test_rejects_fewer_procs_than_nodes(self):
        with pytest.raises(ProfileError):
            sample_llc_curves(get_program("CG"), 2, 4, SPEC)
