"""Property-based bit-identity check for the vectorized curve kernels.

DESIGN.md §7's contract: :class:`PackedCurves` reproduces the scalar
:class:`PiecewiseLinearCurve` evaluator's float operation order exactly,
so batch results are **bitwise** equal to per-curve calls — on any knot
set the profiler could produce, at any query point.
Hypothesis drives randomized curve families, process counts, and
condition values through both kernels and compares with ``==`` on the
raw floats (no approx): one ULP of divergence is a failure.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.apps.curves import PiecewiseLinearCurve
from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.curves_vec import PackedCurves
from repro.profiling.profiler import ScaleProfile
from repro.scheduling.demand import estimate_demands_batch

# Knot coordinates shaped like profiled IPC-LLC / BW-LLC curves: modest
# magnitudes, including negative y plateaus and exact integers (way
# counts), but no inf/nan — the profiler never emits those.
_coord = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _curves(draw, max_curves=5, max_knots=8):
    """A family of 1..max_curves curves with strictly increasing x."""
    family = []
    for _ in range(draw(st.integers(1, max_curves))):
        xs = sorted(draw(st.sets(_coord, min_size=1, max_size=max_knots)))
        ys = [draw(_coord) for _ in xs]
        family.append(PiecewiseLinearCurve(tuple(zip(xs, ys))))
    return family


def _bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _assert_bitwise(batch: np.ndarray, scalar_vals) -> None:
    for got, want in zip(batch.tolist(), scalar_vals):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert _bits(got) == _bits(want), (got, want)


@st.composite
def _queries(draw, family, max_queries=12):
    """(idx, x) query vectors over the family, biased toward the edge
    cases: exact knots (conditions landing on sampled way counts),
    points just outside the sampled range, and interior procs-like
    values."""
    n = draw(st.integers(1, max_queries))
    idx = [draw(st.integers(0, len(family) - 1)) for _ in range(n)]
    xs = []
    for i in idx:
        pts = family[i].points
        pool = [x for x, _ in pts]
        pool += [pts[0][0] - 1.5, pts[-1][0] + 2.25,
                 (pts[0][0] + pts[-1][0]) / 2.0]
        xs.append(draw(st.one_of(st.sampled_from(pool), _coord)))
    return np.array(idx, dtype=np.int64), np.array(xs, dtype=np.float64)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_eval_bitwise_equals_scalar(data):
    family = data.draw(_curves())
    idx, x = data.draw(_queries(family))
    got = PackedCurves(family).eval(idx, x)
    _assert_bitwise(got, [family[i](float(q))
                          for i, q in zip(idx.tolist(), x.tolist())])


@st.composite
def _min_x_cases(draw):
    """(family, idx, target) for the min_x_reaching check."""
    family = draw(_curves())
    idx, target = draw(_queries(family))
    # Also aim targets at exact knot y values (the first-crossing walk's
    # tie cases) by reusing each curve's own ys half the time.
    if draw(st.booleans()):
        target = np.array(
            [family[i].points[draw(st.integers(0, len(family[i].points) - 1))][1]
             for i in idx.tolist()],
            dtype=np.float64,
        )
    return family, idx, target


@given(case=_min_x_cases())
@example(
    # Interpolation lands on 0.0 at an x1 of -0.0: the scalar clamp
    # min(x1, cand) keeps x1's sign.
    case=([PiecewiseLinearCurve(((-1.0, 0.0), (-0.0, 1.0)))],
          np.array([0], dtype=np.int64), np.array([1.0])),
)
@settings(max_examples=200, deadline=None)
def test_min_x_reaching_bitwise_equals_scalar(case):
    family, idx, target = case
    got = PackedCurves(family).min_x_reaching(idx, target)
    _assert_bitwise(got, [family[i].min_x_reaching(float(t))
                          for i, t in zip(idx.tolist(), target.tolist())])


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_vec_counter_accounting(data):
    """Demand estimation counts one curve-kernel evaluation per query of
    its three kernel calls, 3 x entries; without ``counters`` it counts
    nowhere."""
    # Non-negative y keeps every bandwidth booking valid.
    family = [PiecewiseLinearCurve(tuple((x, abs(y)) for x, y in c.points))
              for c in data.draw(_curves(max_curves=3, max_knots=5))]
    entries = [(ScaleProfile(scale=k, n_nodes=k, procs=16, time_s=1.0,
                             ipc_llc=curve, bw_llc=curve), 0.0)
               for k, curve in enumerate(family, start=1)]
    counters = {"vec_curve_evals": 0}
    demands = estimate_demands_batch(entries, 16, 0.9, NodeSpec(),
                                     counters=counters)
    assert counters["vec_curve_evals"] == 3 * len(entries)
    assert estimate_demands_batch(entries, 16, 0.9, NodeSpec()) == demands
