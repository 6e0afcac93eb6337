"""Parametric curve primitives used by program models and profiles.

Two curve families matter in this reproduction:

* :class:`WorkingSetMissCurve` — an exponential working-set law mapping
  per-process cache capacity to LLC miss fraction.  This generates the
  *ground truth* cache behaviour of the synthetic programs (paper Figs 5,
  6, 12).
* :class:`PiecewiseLinearCurve` — linear interpolation over sampled
  points.  The paper's profiler samples LLC allocations at 2, 4, 8, and
  20 ways only and linearly interpolates the rest (Section 5.1); profiles
  stored in the SNS database are piecewise-linear curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import HardwareModelError, ProfileError


@dataclass(frozen=True)
class WorkingSetMissCurve:
    """Exponential working-set miss law.

    ``miss_fraction(S) = floor + (1 - floor) * 2**(-S / half_mb)``

    where ``S`` is the cache capacity available to one process in MB.

    Parameters
    ----------
    half_mb:
        Capacity at which the capacity-miss component halves.  Small
        values mean a compact working set (cache-insensitive beyond a
        tiny allocation); large values mean cache-hungry programs.
    floor:
        Fraction of misses that are compulsory/streaming and never
        disappear with more cache (1.0 for pure streaming like STREAM
        or MG's grid sweeps).
    """

    half_mb: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.half_mb <= 0:
            raise HardwareModelError("half_mb must be positive")
        if not 0.0 <= self.floor <= 1.0:
            raise HardwareModelError("floor must be in [0, 1]")

    def miss_fraction(self, capacity_mb: float) -> float:
        """Miss fraction (of the no-cache miss count) at ``capacity_mb``
        per-process cache capacity."""
        if capacity_mb < 0:
            raise HardwareModelError("capacity must be non-negative")
        return self.floor + (1.0 - self.floor) * 2.0 ** (-capacity_mb / self.half_mb)


@dataclass(frozen=True)
class PiecewiseLinearCurve:
    """Monotone-x piecewise-linear interpolation with flat extrapolation.

    This is the storage format of profiled IPC-LLC and BW-LLC curves: the
    profiler samples a handful of way counts and interpolates linearly
    between them, clamping outside the sampled range (the paper never
    extrapolates beyond 2..20 ways).
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ProfileError("curve needs at least one point")
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ProfileError("curve x values must be strictly increasing")

    @classmethod
    def from_samples(
        cls, xs: Sequence[float], ys: Sequence[float]
    ) -> "PiecewiseLinearCurve":
        if len(xs) != len(ys):
            raise ProfileError("xs and ys must have equal length")
        return cls(tuple(zip([float(x) for x in xs], [float(y) for y in ys])))

    def __call__(self, x: float) -> float:
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1]
        if x >= pts[-1][0]:
            return pts[-1][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= x <= x1:
                t = (x - x0) / (x1 - x0)
                # Convex form is exact at both endpoints (t=0 and t=1).
                return y0 * (1.0 - t) + y1 * t
        raise AssertionError("unreachable")  # pragma: no cover

    def min_x_reaching(self, target_y: float) -> float:
        """Smallest x at which the curve value reaches ``target_y``.

        Used by the SNS demand estimator (paper Fig 10, step 4: the
        minimum LLC ways achieving the tolerable IPC).  Assumes the curve
        is non-decreasing, which holds for IPC-LLC curves — a larger LLC
        allocation never lowers IPC (Section 4.1).  Returns the last
        sampled x if the target is never reached.
        """
        pts = self.points
        if pts[0][1] >= target_y:
            return pts[0][0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if y1 >= target_y:
                if y1 == y0:
                    return x0
                t = (target_y - y0) / (y1 - y0)
                # Clamp: x0 + 1.0*(x1-x0) can land a ULP above x1.
                return min(x1, x0 + t * (x1 - x0))
        return pts[-1][0]

    def as_lists(self) -> Tuple[List[float], List[float]]:
        """Return (xs, ys) lists, e.g. for JSON serialization."""
        return [x for x, _ in self.points], [y for _, y in self.points]

