"""Units and platform constants."""

import pytest

from repro import units


class TestConstants:
    def test_gb_is_decimal(self):
        assert units.GB == 1_000_000_000

    def test_mb_is_decimal(self):
        assert units.MB == 1_000_000

    def test_reference_node_matches_paper(self):
        # Dual Xeon E5-2680 v4: 28 cores, 20 ways (Section 6.1).
        assert units.REF_CORES_PER_NODE == 28
        assert units.REF_LLC_WAYS == 20

    def test_stream_peaks_match_fig3(self):
        assert units.REF_CORE_PEAK_BW == pytest.approx(18.80)
        assert units.REF_NODE_PEAK_BW == pytest.approx(118.26)

    def test_min_ways_is_two(self):
        # Section 5.1: single-way allocation loses associativity.
        assert units.MIN_LLC_WAYS == 2


class TestConversions:
    def test_node_seconds(self):
        assert units.node_seconds(3, 100.0) == 300.0

    def test_node_seconds_zero_nodes(self):
        assert units.node_seconds(0, 500.0) == 0.0

    def test_node_seconds_rejects_negative(self):
        with pytest.raises(ValueError):
            units.node_seconds(-1, 100.0)
        with pytest.raises(ValueError):
            units.node_seconds(1, -100.0)


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        from repro import errors

        for name in (
            "ConfigError", "HardwareModelError", "AllocationError",
            "SchedulingError", "ProfileError", "SimulationError",
            "WorkloadError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_unknown_program_error_carries_name(self):
        from repro.errors import ProfileError, UnknownProgramError

        err = UnknownProgramError("XYZ")
        assert err.name == "XYZ"
        assert isinstance(err, ProfileError)
