"""Piggybacked online profiling: store, scheduler, and convergence."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.errors import ProfileError
from repro.experiments.online_profiling import run_convergence
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.profiling.online import OnlineProfileStore
from repro.scheduling.online_sns import OnlineSpreadNShareScheduler
from repro.sim.job import Job
from repro.sim.runtime import Simulation

SPEC = NodeSpec()


@pytest.fixture
def store() -> OnlineProfileStore:
    return OnlineProfileStore(spec=SPEC, max_cluster_nodes=8)


class TestStore:
    def test_first_trial_is_scale_one(self, store):
        assert store.next_trial_scale(get_program("CG"), 16) == 1

    def test_trial_ladder_ascends(self, store):
        cg = get_program("CG")
        for expected in (1, 2, 4):
            k = store.next_trial_scale(cg, 16)
            assert k == expected
            store.begin_trial(cg, 16, k)
            store.record_trial(cg, 16, k, observed_time=300.0 - 10 * k)

    def test_in_flight_trial_blocks_next(self, store):
        cg = get_program("CG")
        store.begin_trial(cg, 16, 1)
        assert store.next_trial_scale(cg, 16) is None

    def test_double_begin_rejected(self, store):
        cg = get_program("CG")
        store.begin_trial(cg, 16, 1)
        with pytest.raises(ProfileError):
            store.begin_trial(cg, 16, 2)

    def test_abort_unblocks(self, store):
        cg = get_program("CG")
        store.begin_trial(cg, 16, 1)
        store.abort_trial(cg, 16)
        assert store.next_trial_scale(cg, 16) == 1

    def test_record_requires_matching_pending(self, store):
        cg = get_program("CG")
        store.begin_trial(cg, 16, 1)
        with pytest.raises(ProfileError):
            store.record_trial(cg, 16, 2, observed_time=100.0)

    def test_saturation_stops_exploration(self, store):
        bfs = get_program("BFS")
        store.begin_trial(bfs, 16, 1)
        store.record_trial(bfs, 16, 1, observed_time=300.0)
        store.begin_trial(bfs, 16, 2)
        # 2x is >25 % slower: exploration must stop.
        store.record_trial(bfs, 16, 2, observed_time=400.0)
        assert store.exploration_complete(bfs, 16)
        assert store.next_trial_scale(bfs, 16) is None

    def test_single_node_program_completes_after_one_run(self, store):
        gan = get_program("GAN")
        assert store.next_trial_scale(gan, 16) == 1
        store.begin_trial(gan, 16, 1)
        store.record_trial(gan, 16, 1, observed_time=700.0)
        assert store.exploration_complete(gan, 16)

    def test_profile_requires_runs(self, store):
        with pytest.raises(ProfileError):
            store.profile(get_program("CG"), 16)

    def test_nonpositive_time_rejected(self, store):
        cg = get_program("CG")
        store.begin_trial(cg, 16, 1)
        with pytest.raises(ProfileError):
            store.record_trial(cg, 16, 1, observed_time=0.0)


class TestOnlineScheduler:
    def test_trial_runs_are_exclusive(self):
        cluster = ClusterSpec(num_nodes=8)
        policy = OnlineSpreadNShareScheduler(cluster)
        # Two CG jobs at once: the first trials 1x exclusively, the
        # second must not co-locate onto its nodes.
        jobs = [Job(job_id=i, program=get_program("CG"), procs=16)
                for i in range(2)]
        Simulation(cluster, policy, jobs, SimConfig()).run()
        a, b = jobs
        assert set(a.placement.node_ids).isdisjoint(b.placement.node_ids)

    def test_profiles_recorded_after_runs(self):
        cluster = ClusterSpec(num_nodes=8)
        policy = OnlineSpreadNShareScheduler(cluster)
        jobs = [Job(job_id=i, program=get_program("CG"), procs=16,
                    submit_time=i * 1000.0) for i in range(3)]
        Simulation(cluster, policy, jobs, SimConfig()).run()
        assert sorted(policy.store.profile(get_program("CG"), 16).scales) == [1, 2, 4]


class TestConvergence:
    @pytest.mark.parametrize("prog", ["CG", "BW", "BFS", "WC"])
    def test_converges_to_preferred_scale(self, prog):
        result = run_convergence(prog, repetitions=8)
        assert result.converged, (
            f"{prog} ended at {result.converged_scale}x, "
            f"preferred {result.preferred_scale}x"
        )

    def test_first_run_is_ce_equivalent(self):
        result = run_convergence("CG", repetitions=5)
        first = result.repetitions[0]
        assert first.scale == 1
        assert first.normalized_runtime == pytest.approx(1.0, rel=1e-6)

    def test_scaling_program_ends_faster_than_ce(self):
        result = run_convergence("BW", repetitions=8)
        assert result.repetitions[-1].normalized_runtime < 0.9

    def test_compact_program_returns_to_compact(self):
        result = run_convergence("BFS", repetitions=6)
        assert result.repetitions[-1].scale == 1
        assert result.repetitions[-1].normalized_runtime == pytest.approx(
            1.0, rel=1e-6
        )
