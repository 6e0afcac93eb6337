"""Scaling-trial profiler and ProgramProfile."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import ProfileError
from repro.hardware.node_spec import NodeSpec
from repro.profiling.classify import ScalingClass
from repro.profiling.profiler import ProgramProfile, ScaleProfile, profile_program

SPEC = NodeSpec()


class TestTrialLadder:
    def test_profiles_all_candidate_scales(self):
        profile = profile_program(get_program("BW"), 16, SPEC, 8)
        assert set(profile.scales) == {1, 2, 4, 8}

    def test_single_node_program_stops_at_one(self):
        profile = profile_program(get_program("GAN"), 16, SPEC, 8)
        assert set(profile.scales) == {1}
        assert profile.scaling_class is ScalingClass.NEUTRAL

    def test_cluster_size_caps_ladder(self):
        profile = profile_program(get_program("BW"), 16, SPEC, 2)
        assert set(profile.scales) == {1, 2}

    def test_min_cores_per_node_stops_ladder(self):
        # 16 procs at 8x means 2 cores/node; with min 4 the ladder stops.
        profile = profile_program(
            get_program("BW"), 16, SPEC, 8, min_cores_per_node=4
        )
        assert 8 not in profile.scales

    def test_degradation_cutoff_stops_ladder(self):
        # BFS degrades quickly: with a tight cutoff 8x is never tried.
        profile = profile_program(
            get_program("BFS"), 16, SPEC, 8, max_degradation=0.10
        )
        assert 8 not in profile.scales

    def test_mpi_uneven_scale_skipped(self):
        # 28-process MPI jobs cannot split over 8 nodes.
        profile = profile_program(get_program("CG"), 28, SPEC, 8)
        assert 8 not in profile.scales
        assert {1, 2, 4} <= set(profile.scales)

    def test_classifications_match_paper(self):
        expected = {
            "MG": ScalingClass.SCALING, "CG": ScalingClass.SCALING,
            "BW": ScalingClass.SCALING, "TS": ScalingClass.SCALING,
            "LU": ScalingClass.SCALING, "BFS": ScalingClass.COMPACT,
            "EP": ScalingClass.NEUTRAL, "WC": ScalingClass.NEUTRAL,
            "NW": ScalingClass.NEUTRAL, "HC": ScalingClass.NEUTRAL,
        }
        for name, cls in expected.items():
            profile = profile_program(
                get_program(name), 16, SPEC, 8,
                max_degradation=float("inf"),
            )
            assert profile.scaling_class is cls, name

    def test_cg_ideal_scale_is_two(self):
        profile = profile_program(get_program("CG"), 16, SPEC, 8)
        assert profile.ideal_scale == 2

    def test_invalid_procs(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            profile_program(get_program("EP"), 0, SPEC, 8)


class TestProgramProfile:
    @pytest.fixture
    def profile(self) -> ProgramProfile:
        return profile_program(get_program("CG"), 16, SPEC, 8,
                               max_degradation=float("inf"))

    def test_preferred_order_scaling_program(self, profile):
        order = profile.preferred_scale_order()
        assert order[0] == profile.ideal_scale == 2

    def test_preferred_order_neutral_program_ascending(self):
        profile = profile_program(get_program("WC"), 16, SPEC, 8,
                                  max_degradation=float("inf"))
        assert profile.preferred_scale_order() == sorted(profile.scales)

    def test_preferred_order_tolerance_prefers_compact_near_tie(self):
        profile = profile_program(get_program("MG"), 16, SPEC, 8,
                                  max_degradation=float("inf"))
        # MG's 2x/4x/8x times are within ~1 %: with tolerance the
        # smallest near-tie footprint leads.
        order = profile.preferred_scale_order(tolerance=0.05)
        assert order[0] == 2

    def test_duplicate_scale_rejected(self, profile):
        with pytest.raises(ProfileError):
            profile.add(profile.get(1))

    def test_get_missing_scale(self, profile):
        with pytest.raises(ProfileError):
            profile.get(16)

    def test_constraining_resource_mg_is_membw(self):
        profile = profile_program(get_program("MG"), 16, SPEC, 8)
        assert profile.constraining_resource(SPEC) == "membw"

    def test_constraining_resource_cg_is_llc(self):
        profile = profile_program(get_program("CG"), 16, SPEC, 8)
        assert profile.constraining_resource(SPEC) == "llc"

    def test_constraining_resource_ep_is_none(self):
        profile = profile_program(get_program("EP"), 16, SPEC, 8)
        assert profile.constraining_resource(SPEC) is None


class TestScaleProfileValidation:
    def test_rejects_bad_fields(self):
        from repro.apps.curves import PiecewiseLinearCurve
        curve = PiecewiseLinearCurve(((2.0, 1.0),))
        with pytest.raises(ProfileError):
            ScaleProfile(scale=0, n_nodes=1, procs=16, time_s=10.0,
                         ipc_llc=curve, bw_llc=curve)
        with pytest.raises(ProfileError):
            ScaleProfile(scale=1, n_nodes=1, procs=16, time_s=0.0,
                         ipc_llc=curve, bw_llc=curve)
