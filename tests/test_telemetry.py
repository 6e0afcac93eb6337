"""Bandwidth telemetry: segments -> episode matrix."""

import functools
import hashlib

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.telemetry import TelemetryRecorder


@pytest.fixture
def recorder() -> TelemetryRecorder:
    return TelemetryRecorder(num_nodes=2)


class TestSegments:
    def test_single_constant_segment(self, recorder):
        recorder.record(0, 0.0, 50.0)
        recorder.close(60.0)
        matrix = recorder.episode_matrix(30.0, 60.0)
        assert matrix.shape == (2, 2)
        assert matrix[0].tolist() == pytest.approx([50.0, 50.0])
        assert matrix[1].tolist() == pytest.approx([0.0, 0.0])

    def test_mid_episode_change_averages(self, recorder):
        recorder.record(0, 0.0, 100.0)
        recorder.record(0, 15.0, 0.0)
        recorder.close(30.0)
        matrix = recorder.episode_matrix(30.0, 30.0)
        assert matrix[0, 0] == pytest.approx(50.0)

    def test_segment_spanning_episodes(self, recorder):
        recorder.record(0, 10.0, 60.0)
        recorder.close(70.0)
        matrix = recorder.episode_matrix(30.0, 70.0)
        # [10,30): 20s of 60 -> 40 avg; [30,60): full; [60,70): 10s of 60
        assert matrix[0, 0] == pytest.approx(60.0 * 20 / 30)
        assert matrix[0, 1] == pytest.approx(60.0)
        assert matrix[0, 2] == pytest.approx(60.0 * 10 / 30)

    def test_zero_length_segment_dropped(self, recorder):
        recorder.record(0, 5.0, 10.0)
        recorder.record(0, 5.0, 20.0)  # immediate overwrite
        recorder.close(10.0)
        matrix = recorder.episode_matrix(10.0, 10.0)
        assert matrix[0, 0] == pytest.approx(10.0)  # only the 20.0 5s segment? no:
        # the first segment had zero length, the second ran 5..10 at 20.
        # episode average = 20 * 5/10 = 10.

    def test_time_backwards_rejected(self, recorder):
        recorder.record(0, 10.0, 5.0)
        with pytest.raises(SimulationError):
            recorder.record(0, 5.0, 5.0)

    def test_bad_node_rejected(self, recorder):
        with pytest.raises(SimulationError):
            recorder.record(9, 0.0, 1.0)

    def test_negative_bw_rejected(self, recorder):
        with pytest.raises(SimulationError):
            recorder.record(0, 0.0, -1.0)


class TestMetrics:
    def test_variance_uniform_load_is_zero(self, recorder):
        recorder.record(0, 0.0, 40.0)
        recorder.record(1, 0.0, 40.0)
        recorder.close(60.0)
        assert recorder.bandwidth_variance(30.0, 60.0, 100.0) == pytest.approx(0.0)

    def test_variance_imbalanced_load(self, recorder):
        recorder.record(0, 0.0, 100.0)
        recorder.record(1, 0.0, 0.0)
        recorder.close(30.0)
        # values {100, 0}: std = 50, peak 100 -> 0.5
        assert recorder.bandwidth_variance(30.0, 30.0, 100.0) == pytest.approx(0.5)

    def test_matrix_validation(self, recorder):
        with pytest.raises(SimulationError):
            recorder.episode_matrix(0.0, 10.0)
        with pytest.raises(SimulationError):
            recorder.episode_matrix(30.0, 0.0)
        with pytest.raises(SimulationError):
            recorder.bandwidth_variance(30.0, 30.0, 0.0)

    def test_truncation_at_end_time(self, recorder):
        recorder.record(0, 0.0, 60.0)
        recorder.close(100.0)
        matrix = recorder.episode_matrix(30.0, 45.0)
        assert matrix.shape[1] == 2
        assert matrix[0, 1] == pytest.approx(60.0 * 15 / 30)


# -- time-series collector (DESIGN.md §10) ---------------------------------

class TestTimeSeries:
    """The stride-doubling downsampler's preservation law: the retained
    buckets tile the accepted samples, and every bucket holds the exact
    channel totals of its last sample."""

    def _collect(self, n_samples, num_nodes=3, capacity=8, seed=11):
        from repro.obs import CHANNELS, TimeSeries

        rng = np.random.default_rng(seed)
        series = TimeSeries(num_nodes=num_nodes, capacity=capacity)
        retained = []  # (t, gauges) pairs the collector accepted
        t = 0.0
        for _ in range(n_samples):
            t += float(rng.uniform(0.1, 2.0))
            if series.due():
                gauges = rng.uniform(0.0, 100.0,
                                     size=(len(CHANNELS), num_nodes))
                series.add(t, gauges)
                retained.append((t, gauges))
        return series, retained

    @pytest.mark.parametrize("n_samples", [1, 7, 64, 500])
    def test_buckets_tile_samples_and_keep_last_totals(self, n_samples):
        from repro.obs import CHANNELS

        series, retained = self._collect(n_samples)
        i = 0
        for b, (t0, t1) in enumerate(series.spans):
            chunk = []
            while i < len(retained) and retained[i][0] <= t1:
                chunk.append(retained[i])
                i += 1
            assert chunk, b                   # no empty bucket
            assert t0 == chunk[0][0]          # bucket spans its samples
            assert t1 == chunk[-1][0]
            last = chunk[-1][1]
            for c, channel in enumerate(CHANNELS):
                got = series.cluster_series(channel)[b]
                assert got == float(last[c].sum()), (channel, b)
        assert i == len(retained)             # every sample is covered

    def test_memory_stays_bounded(self):
        series, retained = self._collect(2000, capacity=8)
        assert len(series) < 8
        assert series.stride > 1  # compaction actually happened
        # Every tick was either retained or skipped by the stride.
        times = np.array([t for t, _ in retained])
        covered = sum(int(((times >= t0) & (times <= t1)).sum())
                      for t0, t1 in series.spans)
        assert covered == len(retained) < 2000

    def test_finalize_forces_terminal_sample(self):
        from repro.obs import CHANNELS, TimeSeries

        series = TimeSeries(num_nodes=2, capacity=4)
        gauges = np.ones((len(CHANNELS), 2))
        assert series.due()
        series.add(0.0, gauges)
        for _ in range(5):
            series.due()  # skipped ticks
        series.finalize(99.0, gauges * 3)
        assert series.times[-1] == 99.0
        assert series.cluster_series("free_cores")[-1] == 6.0
        # idempotent at the same timestamp
        series.finalize(99.0, gauges * 9)
        assert series.cluster_series("free_cores")[-1] == 6.0

    def test_validation(self):
        from repro.obs import CHANNELS, TimeSeries

        with pytest.raises(SimulationError):
            TimeSeries(num_nodes=0)
        with pytest.raises(SimulationError):
            TimeSeries(num_nodes=2, capacity=7)  # odd
        with pytest.raises(SimulationError):
            TimeSeries(num_nodes=2, capacity=2)  # too small
        series = TimeSeries(num_nodes=2, capacity=4)
        with pytest.raises(SimulationError):
            series.add(0.0, np.zeros((len(CHANNELS), 5)))  # bad shape
        series.add(1.0, np.zeros((len(CHANNELS), 2)))
        with pytest.raises(SimulationError):
            series.add(0.5, np.zeros((len(CHANNELS), 2)))  # backwards
        with pytest.raises(SimulationError):
            series.cluster_series("watts")


class TestTimeSeriesFromTrace:
    """The replayed gauge series must agree with the simulation's own
    cluster state — the trace is a sufficient statistic for occupancy."""

    def _run(self):
        """The run and its gauge series rebuilt at capacity 256."""
        from repro.config import SimConfig, TraceConfig
        from repro.experiments.common import run_policy
        from repro.hardware.topology import ClusterSpec
        from repro.obs import timeseries_from_trace
        from repro.workloads.sequences import random_sequence

        result = run_policy(
            "SNS", ClusterSpec(num_nodes=4),
            random_sequence(seed=9, n_jobs=10),
            sim_config=SimConfig(telemetry=False, trace=TraceConfig()),
        )
        return result, timeseries_from_trace(result.trace.events,
                                             capacity=256)

    def test_samples_match_result_occupancy(self):
        """With a capacity large enough to avoid compaction, every
        decision timestamp is retained; rebuild the expected gauges at
        each one from the finished jobs' placements and intervals."""
        from repro.scheduling.placement import split_procs

        result, series = self._run()
        assert series.stride == 1  # nothing was compacted
        spec = None
        for event in result.trace.events:
            if event["ev"] == "meta":
                spec = event
                break
        for b, t in enumerate(series.times):
            free = np.full(4, float(spec["cores"]))
            bw = np.zeros(4)
            ways = np.zeros(4)
            residents = np.zeros(4)
            for job in result.finished_jobs:
                # resident iff start <= t < finish (the finish record
                # is applied before the timestamp's sample is taken)
                if not (job.start_time <= t < job.finish_time):
                    continue
                placement = job.placement
                splits = split_procs(job.procs, placement.nodes)
                for nid, procs in zip(placement.nodes.tolist(),
                                      splits.tolist()):
                    free[nid] -= procs
                    bw[nid] += placement.booked_bw
                    ways[nid] += placement.dedicated_ways
                    residents[nid] += 1
            assert series.cluster_series("free_cores")[b] \
                == pytest.approx(free.sum())
            assert series.cluster_series("booked_bw")[b] \
                == pytest.approx(bw.sum())
            assert series.cluster_series("alloc_ways")[b] \
                == pytest.approx(ways.sum())
            assert series.cluster_series("residents")[b] \
                == pytest.approx(residents.sum())

    def test_final_sample_matches_live_gauges(self):
        """After the run drains, the replayed terminal sample equals
        the cluster's live gauge matrix (everything free again)."""
        from repro.config import SimConfig, TraceConfig
        from repro.hardware.topology import ClusterSpec
        from repro.sim.runtime import Simulation
        from repro.workloads.sequences import random_sequence

        cluster = ClusterSpec(num_nodes=4)
        sim = Simulation.from_policy_name(
            "SNS", cluster, random_sequence(seed=9, n_jobs=10),
            sim_config=SimConfig(telemetry=False, trace=TraceConfig()),
        )
        result = sim.run()
        series = result.trace.timeseries
        live = sim.cluster.gauge_columns()
        final = np.array([
            series.cluster_series(channel)[-1]
            for channel in ("free_cores", "booked_bw", "alloc_ways",
                            "residents")
        ])
        assert np.allclose(final, live.sum(axis=1))

    def test_rejects_stream_without_meta(self):
        from repro.obs import timeseries_from_trace

        with pytest.raises(SimulationError):
            timeseries_from_trace([{"ev": "submit", "t": 0.0}])


class TestObservabilityIsLazy:
    """The latent-allocation fix: a run that asked for no observability
    must construct neither a TelemetryRecorder nor a Tracer."""

    def test_plain_run_allocates_nothing(self):
        from repro.config import SimConfig
        from repro.hardware.topology import ClusterSpec
        from repro.obs import Tracer
        from repro.sim.runtime import Simulation
        from repro.workloads.sequences import random_sequence

        recorders_before = TelemetryRecorder.created
        tracers_before = Tracer.created
        result = Simulation.from_policy_name(
            "SNS", ClusterSpec(num_nodes=2),
            random_sequence(seed=2, n_jobs=4),
            sim_config=SimConfig(),  # observability defaults: all off
        ).run()
        assert TelemetryRecorder.created == recorders_before
        assert Tracer.created == tracers_before
        assert result.telemetry is None
        assert result.trace is None

    def test_telemetry_only_when_asked(self):
        from repro.config import SimConfig
        from repro.hardware.topology import ClusterSpec
        from repro.sim.runtime import Simulation
        from repro.workloads.sequences import random_sequence

        before = TelemetryRecorder.created
        result = Simulation.from_policy_name(
            "CS", ClusterSpec(num_nodes=2),
            random_sequence(seed=2, n_jobs=4),
            sim_config=SimConfig(telemetry=True),
        ).run()
        assert TelemetryRecorder.created == before + 1
        assert result.telemetry is not None


class TestChanged:
    """``TelemetryRecorder.changed``: the nodes whose resident mix moved
    since the previous call, read from a mix table's ids and keys."""

    def test_reports_moved_and_recycled_ids(self, recorder):
        keys = [(), ((1, 4),)]
        assert recorder.changed(np.array([0, 1]), keys) == [0, 1]
        assert recorder.changed(np.array([0, 1]), keys) == []
        # Node 0 moves to id 1.
        assert recorder.changed(np.array([1, 1]), keys) == [0]
        # Node 0 moves back, and id 1 is freed and interned again under
        # another key, which node 1 carries without moving.
        keys = [(), ((2, 4),)]
        assert recorder.changed(np.array([0, 1]), keys) == [0, 1]
        # Keys compare by identity: an equal key in a new object is
        # another interning.
        keys = [(), tuple(list(keys[1]))]
        assert recorder.changed(np.array([0, 1]), keys) == [1]


#: The telemetry grid: every policy x seeds 1-3 x MTBF faults off/on x
#: a 4:1 leaf-spine fabric off/on, on 16 nodes with 40 jobs wide enough
#: to span nodes and racks.
_GRID_POLICIES = ("CE", "CS", "SNS", "CE-BF")
_GRID_POINTS = [(seed, faults, fabric) for seed in (1, 2, 3)
                for faults in (False, True) for fabric in (False, True)]

#: SHA-256 over each policy's grid, in ``_GRID_POINTS`` order, of
#: ``episode_matrix(30.0, makespan, metric=bw|cores).tobytes()``, as the
#: runtime recorded them when it still tracked the touched nodes of
#: every event.
_EPISODE_DIGESTS = {
    "CE": "09dc3301a47fdbbde0bb2d998d1c706c"
        "31c812db517b29f16c0c7cd942b3c9e5",
    "CS": "1369e02dde3cc5ba7d292d2b480e0237"
        "1303e12d7b40161206a6445080381792",
    "SNS": "71c4e7a6bca056043a816b8fad4ddaf8"
        "f5253b1e6d3313c324ebc63a03c1b302",
    "CE-BF": "7f7dcd05ce4a23d4c231c521c4372a0f"
        "47ff41f4b6ca2818683ca0ea071b641c",
}

#: SHA-256 over each policy's grid of ``repr(sorted(counters.items()))``
#: without telemetry, as recorded when the batched-kernel counters still
#: lived on a separate per-simulation object.
_COUNTER_DIGESTS = {
    "CE": "52618e5da51959f07f992e0622c52274"
        "7959dd0bd52939918c487204e35209a2",
    "CS": "f174e828be89c2915fd0b3f0c163f6a7"
        "d410cdd67ca26461891838fe63cf9e6f",
    "SNS": "66f0943b03adf256e277bd93c200834b"
        "d9ade631813e9ab9cfc82d405f84cb9f",
    "CE-BF": "d0ddde4397d8b01ee6bee5c1db791a0e"
        "87b264ba6d146edbcbac7211677e4452",
}


@functools.lru_cache(maxsize=None)
def _grid(policy: str, telemetry: bool) -> tuple:
    from repro.config import RetryPolicy, SimConfig
    from repro.faults.plan import FaultPlan
    from repro.hardware.fabric import FabricSpec
    from repro.hardware.topology import ClusterSpec
    from repro.sim.runtime import Simulation
    from repro.workloads.sequences import random_sequence

    results = []
    for seed, faults, fabric in _GRID_POINTS:
        spec = ClusterSpec(
            num_nodes=16,
            fabric=FabricSpec(rack_size=4, oversubscription=4.0)
            if fabric else None,
        )
        plan = FaultPlan.from_mtbf(
            seed=seed, num_nodes=16, mtbf_s=3000.0, mttr_s=120.0,
            horizon_s=4000.0,
            retry=RetryPolicy(max_retries=3, backoff_s=30.0),
        ) if faults else None
        jobs = random_sequence(
            seed=seed, n_jobs=40, proc_choices=(8, 16, 28, 56),
            program_names=("MG", "CG", "EP", "LU", "BFS", "WC", "TS", "NW"),
        )
        results.append(Simulation.from_policy_name(
            policy, spec, jobs, sim_config=SimConfig(telemetry=telemetry),
            fault_plan=plan,
        ).run())
    return tuple(results)


def _episode_digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        for metric in ("bw", "cores"):
            h.update(result.telemetry.episode_matrix(
                30.0, result.makespan, metric=metric).tobytes())
    return h.hexdigest()


def _counter_digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        # The digests were recorded with a ``batch_nodes`` counter, since
        # deleted: it was bumped beside ``arb_nodes_solved`` by the same
        # amount, so it is restored from it here.
        counters = dict(result.counters,
                        batch_nodes=result.counters["arb_nodes_solved"])
        h.update(repr(sorted(counters.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("policy", _GRID_POLICIES)
class TestSampledPerStep:
    """One telemetry sample per step, from the mix table, reproduces the
    episode matrices of per-event node tracking bit for bit, and moves
    no counter."""

    def test_episode_matrices_match_recorded(self, policy):
        results = _grid(policy, True)
        # The grid exercises what it claims: failures and fabric links.
        assert any(r.counters["node_failures"] for r in results)
        assert any(r.counters["fabric_link_refreshes"] for r in results)
        assert _episode_digest(results) == _EPISODE_DIGESTS[policy]

    def test_counters_independent_of_telemetry(self, policy):
        for on, off in zip(_grid(policy, True), _grid(policy, False)):
            assert on.counters == off.counters

    def test_counters_match_recorded(self, policy):
        assert _counter_digest(_grid(policy, False)) \
            == _COUNTER_DIGESTS[policy]
