"""Property check of the demand sweep's curve-query accounting.

``estimate_demands_batch`` is :func:`estimate_demand` per candidate
scale; it reports three curve queries per scale under
``vec_curve_evals`` (DESIGN.md §7) and computes the same demands with
or without a counters dict.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.apps.curves import PiecewiseLinearCurve
from repro.hardware.node_spec import NodeSpec
from repro.profiling.profiler import ScaleProfile
from repro.scheduling.demand import estimate_demand, estimate_demands_batch

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


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_vec_counter_accounting(data):
    """Demand estimation counts three curve queries per entry; without
    ``counters`` it counts nowhere, and each demand is the scalar
    estimate of its scale."""
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
    assert demands == [estimate_demand(p, 16, 0.9, NodeSpec())
                       for p, _ in entries]
