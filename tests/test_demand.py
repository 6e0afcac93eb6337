"""Resource-demand estimation (paper Fig 10)."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import SchedulingError
from repro.hardware.cache import CacheModel
from repro.hardware.node_spec import NodeSpec
from repro.profiling.profiler import profile_program
from repro.scheduling.demand import ResourceDemand, estimate_demand

SPEC = NodeSpec()


@pytest.fixture(scope="module")
def cg_profile():
    return profile_program(get_program("CG"), 16, SPEC, 8,
                           max_degradation=float("inf"))


@pytest.fixture(scope="module")
def ep_profile():
    return profile_program(get_program("EP"), 16, SPEC, 8,
                           max_degradation=float("inf"))


class TestFootprint:
    def test_nodes_and_cores(self, cg_profile):
        d = estimate_demand(cg_profile.get(2), 16, 0.9, SPEC)
        assert d.n_nodes == 2
        assert d.cores_per_node == 8

    def test_uneven_cores_round_up(self, ep_profile):
        d = estimate_demand(ep_profile.get(1), 16, 0.9, SPEC)
        assert d.n_nodes == 1
        assert d.cores_per_node == 16


class TestWayEstimation:
    def test_alpha_one_demands_near_full_ways(self, cg_profile):
        d = estimate_demand(cg_profile.get(1), 16, 1.0, SPEC)
        assert d.ways >= 18  # CG keeps gaining IPC up to 20 ways

    def test_lower_alpha_needs_fewer_ways(self, cg_profile):
        d_strict = estimate_demand(cg_profile.get(1), 16, 0.95, SPEC)
        d_loose = estimate_demand(cg_profile.get(1), 16, 0.80, SPEC)
        assert d_loose.ways <= d_strict.ways

    def test_cg_alpha09_matches_ways90_band(self, cg_profile):
        d = estimate_demand(cg_profile.get(1), 16, 0.9, SPEC)
        assert 8 <= d.ways <= 12  # paper Fig 12: ~10 ways

    def test_insensitive_program_gets_minimum(self, ep_profile):
        d = estimate_demand(ep_profile.get(1), 16, 0.9, SPEC)
        assert d.ways == 2

    def test_min_ways_respected(self, ep_profile):
        spec = NodeSpec(cache=CacheModel(min_ways=4))
        d = estimate_demand(ep_profile.get(1), 16, 0.9, spec)
        assert d.ways >= 4


class TestBandwidthEstimation:
    def test_bw_scales_with_cores(self, cg_profile):
        p1 = cg_profile.get(1)
        d = estimate_demand(p1, 16, 0.9, SPEC)
        per_proc = p1.bw_llc(float(d.ways))
        assert d.bw_per_node == pytest.approx(per_proc * 16)

    def test_spread_job_books_less_per_node(self, cg_profile):
        d1 = estimate_demand(cg_profile.get(1), 16, 0.9, SPEC)
        d2 = estimate_demand(cg_profile.get(2), 16, 0.9, SPEC)
        assert d2.bw_per_node < d1.bw_per_node


class TestValidation:
    def test_alpha_bounds(self, cg_profile):
        with pytest.raises(SchedulingError):
            estimate_demand(cg_profile.get(1), 16, 0.0, SPEC)
        with pytest.raises(SchedulingError):
            estimate_demand(cg_profile.get(1), 16, 1.1, SPEC)

    def test_procs_bounds(self, cg_profile):
        with pytest.raises(SchedulingError):
            estimate_demand(cg_profile.get(1), 0, 0.9, SPEC)

    def test_resource_demand_validation(self):
        with pytest.raises(SchedulingError):
            ResourceDemand(scale=0, n_nodes=1, cores_per_node=1, ways=2,
                           bw_per_node=0.0)
        with pytest.raises(SchedulingError):
            ResourceDemand(scale=1, n_nodes=1, cores_per_node=1, ways=2,
                           bw_per_node=-1.0)
