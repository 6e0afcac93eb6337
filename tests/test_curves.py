"""Curve primitives: working-set miss law and piecewise-linear profiles."""

import pytest

from repro.apps.curves import PiecewiseLinearCurve, WorkingSetMissCurve
from repro.errors import HardwareModelError, ProfileError


class TestWorkingSetMissCurve:
    def test_zero_capacity_full_misses(self):
        curve = WorkingSetMissCurve(half_mb=2.0, floor=0.1)
        assert curve.miss_fraction(0.0) == pytest.approx(1.0)

    def test_half_point(self):
        curve = WorkingSetMissCurve(half_mb=2.0, floor=0.0)
        assert curve.miss_fraction(2.0) == pytest.approx(0.5)

    def test_floor_is_asymptote(self):
        curve = WorkingSetMissCurve(half_mb=1.0, floor=0.3)
        assert curve.miss_fraction(1e6) == pytest.approx(0.3)

    def test_monotone_decreasing(self):
        curve = WorkingSetMissCurve(half_mb=3.0, floor=0.2)
        values = [curve.miss_fraction(s) for s in (0, 1, 2, 4, 8, 16, 64)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_streaming_floor_one_is_flat(self):
        curve = WorkingSetMissCurve(half_mb=1.0, floor=1.0)
        assert curve.miss_fraction(0.0) == curve.miss_fraction(100.0) == 1.0

    def test_rejects_bad_params(self):
        with pytest.raises(HardwareModelError):
            WorkingSetMissCurve(half_mb=0.0)
        with pytest.raises(HardwareModelError):
            WorkingSetMissCurve(half_mb=1.0, floor=1.5)

    def test_rejects_negative_capacity(self):
        with pytest.raises(HardwareModelError):
            WorkingSetMissCurve(half_mb=1.0).miss_fraction(-1.0)


class TestPiecewiseLinearCurve:
    @pytest.fixture
    def curve(self):
        return PiecewiseLinearCurve.from_samples([2, 4, 8, 20], [1.0, 2.0, 4.0, 10.0])

    def test_exact_at_samples(self, curve):
        assert curve(4.0) == pytest.approx(2.0)
        assert curve(20.0) == pytest.approx(10.0)

    def test_linear_between_samples(self, curve):
        assert curve(3.0) == pytest.approx(1.5)
        assert curve(14.0) == pytest.approx(7.0)

    def test_clamped_extrapolation(self, curve):
        # The paper never extrapolates beyond the sampled 2..20 range.
        assert curve(0.0) == pytest.approx(1.0)
        assert curve(100.0) == pytest.approx(10.0)

    def test_min_x_reaching_interpolates(self, curve):
        assert curve.min_x_reaching(3.0) == pytest.approx(6.0)

    def test_min_x_reaching_below_first(self, curve):
        assert curve.min_x_reaching(0.5) == pytest.approx(2.0)

    def test_min_x_reaching_unreachable_clamps(self, curve):
        assert curve.min_x_reaching(99.0) == pytest.approx(20.0)

    def test_min_x_reaching_flat_segment(self):
        curve = PiecewiseLinearCurve.from_samples([1, 2, 3], [1.0, 1.0, 2.0])
        assert curve.min_x_reaching(1.0) == pytest.approx(1.0)

    def test_as_lists_roundtrip(self, curve):
        xs, ys = curve.as_lists()
        again = PiecewiseLinearCurve.from_samples(xs, ys)
        assert again.points == curve.points

    def test_rejects_unsorted_x(self):
        with pytest.raises(ProfileError):
            PiecewiseLinearCurve(((2.0, 1.0), (2.0, 2.0)))

    def test_rejects_empty(self):
        with pytest.raises(ProfileError):
            PiecewiseLinearCurve(())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ProfileError):
            PiecewiseLinearCurve.from_samples([1, 2], [1.0])

    def test_single_point_constant(self):
        curve = PiecewiseLinearCurve(((5.0, 3.0),))
        assert curve(0.0) == curve(100.0) == 3.0

