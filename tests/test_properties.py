"""Property-based tests (hypothesis) on core data structures and model
invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.curves import PiecewiseLinearCurve, WorkingSetMissCurve
from repro.apps.program import CommModel
from repro.apps.catalog import get_program
from repro.hardware.topology import ClusterSpec
from repro.hardware.membw import BandwidthModel
from repro.scheduling.placement import split_procs
from repro.sim.cluster import ClusterState
from repro.sim.engine import EventQueue

# ---------------------------------------------------------------------------
# Bandwidth model
# ---------------------------------------------------------------------------

bw_models = st.builds(
    BandwidthModel,
    peak=st.floats(min_value=10.0, max_value=1000.0),
    core_peak=st.floats(min_value=1.0, max_value=10.0),
)


class TestBandwidthProperties:
    @given(model=bw_models, n=st.integers(min_value=0, max_value=512))
    def test_aggregate_bounded_by_peak(self, model, n):
        assert 0.0 <= model.aggregate(n) <= model.peak + 1e-9

    @given(model=bw_models,
           a=st.integers(min_value=0, max_value=256),
           b=st.integers(min_value=0, max_value=256))
    def test_aggregate_monotone(self, model, a, b):
        lo, hi = min(a, b), max(a, b)
        assert model.aggregate(lo) <= model.aggregate(hi) + 1e-9

    @given(model=bw_models, n=st.integers(min_value=1, max_value=256),
           demand=st.floats(min_value=0.0, max_value=1e4))
    def test_supply_never_exceeds_demand_or_saturation(self, model, n, demand):
        granted = model.supply(demand, n)
        assert granted <= demand + 1e-9
        assert granted <= model.aggregate(n) + 1e-9


# ---------------------------------------------------------------------------
# Miss curves
# ---------------------------------------------------------------------------

miss_curves = st.builds(
    WorkingSetMissCurve,
    half_mb=st.floats(min_value=0.01, max_value=100.0),
    floor=st.floats(min_value=0.0, max_value=1.0),
)


class TestMissCurveProperties:
    @given(curve=miss_curves, s=st.floats(min_value=0.0, max_value=1e4))
    def test_bounded_by_floor_and_one(self, curve, s):
        m = curve.miss_fraction(s)
        assert curve.floor - 1e-12 <= m <= 1.0 + 1e-12

    @given(curve=miss_curves,
           a=st.floats(min_value=0.0, max_value=1e3),
           b=st.floats(min_value=0.0, max_value=1e3))
    def test_monotone_nonincreasing(self, curve, a, b):
        lo, hi = min(a, b), max(a, b)
        assert curve.miss_fraction(hi) <= curve.miss_fraction(lo) + 1e-12


# ---------------------------------------------------------------------------
# Piecewise-linear curves
# ---------------------------------------------------------------------------

@st.composite
def plc_curves(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    xs = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=100.0),
        min_size=n, max_size=n, unique=True,
    )))
    ys = draw(st.lists(
        st.floats(min_value=-100.0, max_value=100.0),
        min_size=n, max_size=n,
    ))
    return PiecewiseLinearCurve.from_samples(xs, ys)


class TestPiecewiseLinearProperties:
    @given(curve=plc_curves(), x=st.floats(min_value=-50.0, max_value=150.0))
    def test_value_within_sample_range(self, curve, x):
        _, ys = curve.as_lists()
        value = curve(x)
        assert min(ys) - 1e-9 <= value <= max(ys) + 1e-9

    @given(curve=plc_curves())
    def test_exact_at_every_sample(self, curve):
        for x, y in curve.points:
            assert curve(x) == y

    @given(curve=plc_curves(), target=st.floats(min_value=-100, max_value=100))
    def test_min_x_reaching_is_within_domain(self, curve, target):
        x = curve.min_x_reaching(target)
        assert curve.points[0][0] <= x <= curve.points[-1][0]


# ---------------------------------------------------------------------------
# Way ledger
# ---------------------------------------------------------------------------

@st.composite
def allocation_sequences(draw):
    """A sequence of (job_id, ways) allocations that individually respect
    the 2-way minimum."""
    n = draw(st.integers(min_value=0, max_value=8))
    return [
        (jid, draw(st.integers(min_value=2, max_value=20)))
        for jid in range(n)
    ]


def _place_sequence(seq):
    """A one-node partitioned cluster with each one-process slice of
    ``seq`` installed when the mix-level demand test admits it; returns
    the cluster and the installed ``{job: ways}``."""
    node = ClusterState(ClusterSpec(num_nodes=1), partitioned=True)
    mixes = node.mixes
    ep = get_program("EP")
    resident = {}
    for jid, ways in seq:
        if mixes.fits(1, ways, 0.0, 0.0, mixes.mix[0]):
            node.place_slices([0], jid, ep, [1], ways, 0.0, 1)
            resident[jid] = ways
    return node, resident


class TestLedgerProperties:
    @given(seq=allocation_sequences())
    @settings(max_examples=200)
    def test_conservation_and_sharing(self, seq):
        node, resident = _place_sequence(seq)
        mixes = node.mixes
        m = mixes.mix.item(0)
        allocated = 20 - mixes.free_ways.item(m)
        assert allocated == sum(resident.values())
        assert node.gauge_columns()[2, 0] == allocated
        if resident:
            effective = {s.job_id: s.effective_ways
                         for s in mixes.slices(m, True, False)}
            assert math.isclose(sum(effective.values()), 20.0)
            for jid, ways in resident.items():
                assert effective[jid] >= ways - 1e-12

    @given(seq=allocation_sequences())
    def test_release_restores_everything(self, seq):
        node, resident = _place_sequence(seq)
        for jid in resident:
            node.remove_slices([0], jid)
        mixes = node.mixes
        assert mixes.free_ways.item(mixes.mix.item(0)) == 20
        assert node.gauge_columns()[2, 0] == 0


# ---------------------------------------------------------------------------
# Process splitting
# ---------------------------------------------------------------------------

class TestSplitProperties:
    @given(procs=st.integers(min_value=1, max_value=10_000),
           n=st.integers(min_value=1, max_value=128))
    def test_split_conserves_and_balances(self, procs, n):
        assume(procs >= n)
        split = split_procs(procs, list(range(n))).tolist()
        assert len(split) == n
        assert sum(split) == procs
        assert split == sorted(split, reverse=True)  # extras lead
        counts = set(split)
        assert max(counts) - min(counts) <= 1
        assert all(c >= 1 for c in counts)


# ---------------------------------------------------------------------------
# Event queue
# ---------------------------------------------------------------------------

class TestEventQueueProperties:
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e6),
                          min_size=0, max_size=64))
    def test_pops_sorted(self, times):
        q = EventQueue()
        for i, t in enumerate(times):
            q.push_submit(t, i)
        popped = []
        while True:
            ev = q.pop()
            if ev is None:
                break
            popped.append(ev.time)
        assert popped == sorted(popped)
        assert len(popped) == len(times)

    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e6),
                          min_size=1, max_size=32))
    def test_only_last_finish_survives(self, times):
        q = EventQueue()
        for t in times:
            q.push_finish(t, job_id=1)
        ev = q.pop()
        assert ev is not None and ev.time == times[-1]
        assert q.pop() is None


# ---------------------------------------------------------------------------
# Communication model
# ---------------------------------------------------------------------------

comm_models = st.builds(
    CommModel,
    f_comm=st.floats(min_value=0.0, max_value=0.4),
    wait_factor=st.floats(min_value=0.0, max_value=1.0),
    net_coeff=st.floats(min_value=0.0, max_value=0.2),
    net_lin=st.floats(min_value=0.0, max_value=0.04),
)


class TestCommProperties:
    @given(comm=comm_models,
           k=st.floats(min_value=1.0, max_value=16.0),
           n=st.integers(min_value=1, max_value=10_000))
    def test_fraction_bounded(self, comm, k, n):
        f = comm.comm_fraction(k, n)
        assert 0.0 <= f < 1.0
        assert f <= comm.worst_case_fraction() + 1e-12

    @given(comm=comm_models, n=st.integers(min_value=1, max_value=64))
    def test_wait_relief_monotone_in_k(self, comm, n):
        f1 = comm.comm_fraction(1.0, n)
        f2 = comm.comm_fraction(2.0, n)
        assert f2 <= f1 + 1e-12
