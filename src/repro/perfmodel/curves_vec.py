"""Vectorized piecewise-linear curve kernels (DESIGN.md §7).

:class:`PackedCurves` packs a family of profiled
:class:`~repro.apps.curves.PiecewiseLinearCurve` objects (IPC-LLC /
BW-LLC curves across candidate scale factors) into padded knot arrays,
so a whole sweep of curve evaluations — every ``(program, procs,
condition)`` tuple of a demand-estimation pass — runs as one batch of
array ops instead of per-curve Python loops.

Bit-identity contract: every kernel reproduces the scalar evaluator's
float operation order exactly.

* ``eval``: the scalar ``__call__`` clamps flat outside the knot range
  and otherwise interpolates the *first* segment with ``x0 <= x <= x1``
  using ``t = (x - x0) / (x1 - x0); y = y0*(1.0-t) + y1*t``.  The batch
  kernel locates the rightmost knot ``<= x`` per query, then steps back
  one segment when ``x`` sits exactly on an interior knot — reproducing
  the scalar's first-match segment choice, and with it the exact same
  three-op interpolation on the same operands.
* ``min_x_reaching``: the scalar walks to the *first* knot with
  ``y1 >= target`` and inverts that segment with
  ``min(x1, x0 + t*(x1 - x0))``.  The batch kernel finds the same first
  crossing with an ``argmax`` over ``ys >= target`` (NOT a count — the
  walk semantics must survive non-monotone curves) and applies the same
  guarded inversion elementwise.

The scalar evaluator remains the equivalence-test oracle; nothing else
should walk curve knots in Python.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.apps.curves import PiecewiseLinearCurve
from repro.errors import ProfileError


class PackedCurves:
    """A family of piecewise-linear curves as padded knot arrays.

    ``xs`` is padded with ``+inf`` (no query lands in the pad when
    locating segments) and ``ys`` with each curve's last value (flat
    extrapolation built into the pad).  ``counts[i]`` is curve ``i``'s
    real knot count.
    """

    __slots__ = ("xs", "ys", "counts", "m")

    def __init__(self, curves: Sequence[PiecewiseLinearCurve]) -> None:
        if not curves:
            raise ProfileError("PackedCurves needs at least one curve")
        m = len(curves)
        # One pad column past the longest curve keeps ``j + 1`` segment
        # reads in bounds even for single-knot curves (whose every query
        # resolves through the flat clamps, never the interpolation).
        width = max(len(c.points) for c in curves) + 1
        self.m = m
        self.xs = np.full((m, width), np.inf, dtype=np.float64)
        self.ys = np.empty((m, width), dtype=np.float64)
        self.counts = np.empty(m, dtype=np.int64)
        for i, curve in enumerate(curves):
            pts = curve.points
            n = len(pts)
            self.counts[i] = n
            self.xs[i, :n] = [x for x, _ in pts]
            self.ys[i, :n] = [y for _, y in pts]
            self.ys[i, n:] = pts[-1][1]

    def eval(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Evaluate curve ``idx[i]`` at ``x[i]`` for every query ``i``;
        bit-identical to ``curves[idx[i]](x[i])``."""
        idx = np.asarray(idx, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        rows = np.arange(x.shape[0])
        xs = self.xs[idx]
        ys = self.ys[idx]
        n = self.counts[idx]
        first_x = xs[:, 0]
        first_y = ys[:, 0]
        last_x = xs[rows, n - 1]
        last_y = ys[rows, n - 1]
        # Rightmost knot <= x.  Queries below the first knot or above the
        # last are clamped by the where-chain below, so the clipped
        # segment index only has to be in range, not meaningful.
        j = np.clip((xs <= x[:, None]).sum(axis=1) - 1, 0, None)
        # The scalar evaluator interpolates the FIRST segment containing
        # x, so a query sitting exactly on an interior knot belongs to
        # the segment *ending* there (t = 1.0), not starting there.
        j = j - ((xs[rows, j] == x) & (j > 0) & (j < n - 1))
        j = np.minimum(j, np.maximum(n - 2, 0))
        x0 = xs[rows, j]
        y0 = ys[rows, j]
        x1 = xs[rows, j + 1]
        y1 = ys[rows, j + 1]
        # Lanes resolved by the clamp chain below may divide by a
        # zero-width pad segment; their garbage is discarded by the
        # where(), so only the warning needs suppressing.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = (x - x0) / (x1 - x0)
            mid = y0 * (1.0 - t) + y1 * t
        return np.where(x <= first_x, first_y,
                        np.where(x >= last_x, last_y, mid))

    def min_x_reaching(self, idx: np.ndarray,
                       target: np.ndarray) -> np.ndarray:
        """Smallest x at which curve ``idx[i]`` reaches ``target[i]``;
        bit-identical to ``curves[idx[i]].min_x_reaching(target[i])``."""
        idx = np.asarray(idx, dtype=np.int64)
        target = np.asarray(target, dtype=np.float64)
        rows = np.arange(target.shape[0])
        xs = self.xs[idx]
        ys = self.ys[idx]
        n = self.counts[idx]
        first_x = xs[:, 0]
        first_y = ys[:, 0]
        last_x = xs[rows, n - 1]
        # First knot reaching the target — argmax of the boolean mask,
        # restricted to real knots (the pad repeats the last y, so a pad
        # hit implies a real hit at n-1 or earlier).
        mask = ys >= target[:, None]
        # The pad repeats the last real y, so it cannot fabricate a
        # crossing no real knot has: any() over the full width is
        # exactly "some real knot reaches the target".
        reached = mask.any(axis=1)
        k = np.clip(mask.argmax(axis=1), 1, None)
        x0 = xs[rows, k - 1]
        y0 = ys[rows, k - 1]
        x1 = xs[rows, k]
        y1 = ys[rows, k]
        # Flat-segment lanes take the x0 branch of the where(); the
        # dead inversion lanes may overflow or produce nan — suppress
        # the warning, the values never escape.
        with np.errstate(over="ignore", invalid="ignore"):
            t = (target - y0) / np.where(y1 == y0, 1.0, y1 - y0)
            cand = x0 + t * (x1 - x0)
            # The scalar clamp is builtin ``min(x1, cand)``, which keeps
            # x1 on ties (-0.0 vs 0.0 included); np.minimum would not.
            inv = np.where(y1 == y0, x0, np.where(cand < x1, cand, x1))
        return np.where(first_y >= target, first_x,
                        np.where(reached, inv, last_x))
