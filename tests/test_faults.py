"""Fault injection: plans, eviction/retry semantics, and determinism.

The contract under test (DESIGN.md §8): an empty plan is bit-identical
to no plan at all; a fixed plan under a fixed seed replays identically
(and on the oracle, ``tests/oracle``); node failures evict residents,
requeue them under the RetryPolicy, and account the lost node-seconds
as badput; profile-store outages degrade SNS to exclusive placement.
"""

import pytest

from repro.config import RetryPolicy, SchedulerConfig, SimConfig
from repro.errors import ConfigError, SimulationError
from repro.apps.catalog import get_program
from repro.experiments.common import run_policy
from repro.faults import (
    FaultPlan,
    NodeFault,
    ProfileOutage,
    parse_fault_spec,
)
from repro.hardware.topology import ClusterSpec
from repro.sim.cluster import ClusterState
from repro.sim.engine import EventKind, EventQueue
from repro.sim.job import Job, JobState
from repro.sim.runtime import Simulation
from repro.workloads.sequences import clone_jobs, random_sequence
from tests.against_oracle import assert_matches_oracle, fast_core

FAST = SimConfig()


def _single_job(program="EP", procs=28):
    return [Job(job_id=0, program=get_program(program), procs=procs,
                submit_time=0.0)]


def _schedule(result):
    return [
        (j.job_id, j.state.value, j.retries, j.scale_factor,
         tuple(j.placement.node_ids) if j.placement else None,
         j.start_time, j.finish_time)
        for j in sorted(result.jobs, key=lambda j: j.job_id)
    ]


class TestFaultPlanValidation:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().max_node_id() == -1

    def test_nonempty_plan_is_truthy(self):
        plan = FaultPlan(node_faults=(NodeFault(2, 10.0, 20.0),))
        assert plan
        assert plan.max_node_id() == 2

    def test_recover_must_follow_fail(self):
        with pytest.raises(ConfigError):
            NodeFault(0, 10.0, 10.0)

    def test_overlapping_windows_same_node_rejected(self):
        with pytest.raises(ConfigError, match="overlapping"):
            FaultPlan(node_faults=(
                NodeFault(0, 10.0, 30.0), NodeFault(0, 20.0, 40.0),
            ))

    def test_permanent_fault_blocks_later_windows(self):
        with pytest.raises(ConfigError, match="overlapping"):
            FaultPlan(node_faults=(
                NodeFault(0, 10.0, None), NodeFault(0, 20.0, 30.0),
            ))

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ConfigError, match="overlapping"):
            FaultPlan(profile_outages=(
                ProfileOutage(0.0, 10.0), ProfileOutage(5.0, 15.0),
            ))

    def test_disjoint_windows_accepted(self):
        FaultPlan(
            node_faults=(NodeFault(0, 10.0, 20.0), NodeFault(0, 20.0, 30.0)),
            profile_outages=(ProfileOutage(0.0, 5.0), ProfileOutage(5.0, 9.0)),
        )

    def test_from_mtbf_deterministic(self):
        a = FaultPlan.from_mtbf(seed=3, num_nodes=8, mtbf_s=1000.0,
                                mttr_s=100.0, horizon_s=10000.0)
        b = FaultPlan.from_mtbf(seed=3, num_nodes=8, mtbf_s=1000.0,
                                mttr_s=100.0, horizon_s=10000.0)
        assert a.node_faults == b.node_faults
        assert a.node_faults  # 8 nodes x 10 MTBFs: failures happen

    def test_plan_rejects_node_beyond_cluster(self):
        plan = FaultPlan(node_faults=(NodeFault(8, 10.0, 20.0),))
        with pytest.raises(SimulationError, match="names node 8"):
            Simulation.from_policy_name(
                "CE", ClusterSpec(num_nodes=8), _single_job(),
                sim_config=FAST, fault_plan=plan,
            )


class TestParseFaultSpec:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "mtbf=1000,mttr=100,seed=3,horizon=10000,retries=2,backoff=5",
            num_nodes=8,
        )
        assert plan.retry == RetryPolicy(max_retries=2, backoff_s=5.0)
        assert plan.node_faults == FaultPlan.from_mtbf(
            seed=3, num_nodes=8, mtbf_s=1000.0, mttr_s=100.0,
            horizon_s=10000.0,
        ).node_faults

    def test_mtbf_required(self):
        with pytest.raises(ConfigError, match="mtbf"):
            parse_fault_spec("mttr=100", num_nodes=8)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_fault_spec("mtbf=1000,mtbbf=3", num_nodes=8)

    def test_malformed_entry_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_fault_spec("mtbf", num_nodes=8)


class TestEngineFaultEvents:
    def test_push_fault_rejects_job_kinds(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push_fault(1.0, EventKind.JOB_SUBMIT, 0)

    def test_fault_event_ordering_at_equal_time(self):
        # finish < fail < recover < profile-down < profile-up < submit
        q = EventQueue()
        q.push_submit(5.0, 1)
        q.push_fault(5.0, EventKind.PROFILE_UP)
        q.push_fault(5.0, EventKind.NODE_RECOVER, 3)
        q.push_fault(5.0, EventKind.NODE_FAIL, 3)
        q.push_finish(5.0, 2)
        q.push_fault(5.0, EventKind.PROFILE_DOWN)
        kinds = [q.pop().kind for _ in range(6)]
        assert kinds == sorted(kinds)
        assert kinds[0] is EventKind.JOB_FINISH
        assert kinds[-1] is EventKind.JOB_SUBMIT


class TestClusterAvailability:
    def test_fail_node_leaves_index(self, testbed):
        cluster = ClusterState(testbed)
        assert cluster.idle_count() == 8
        cluster.fail_node(3)
        assert cluster.is_down(3)
        assert cluster.down_nodes() == [3]
        assert cluster.idle_count() == 7
        assert 3 not in cluster.first_idle(7)
        cluster.verify_index()

    def test_fail_keeps_release_epoch(self, testbed):
        cluster = ClusterState(testbed)
        release = cluster.release_epoch
        cluster.fail_node(0)
        assert cluster.release_epoch == release

    def test_recover_bumps_release_epoch(self, testbed):
        cluster = ClusterState(testbed)
        cluster.fail_node(0)
        release = cluster.release_epoch
        cluster.recover_node(0)
        assert cluster.release_epoch == release + 1
        assert not cluster.is_down(0)
        assert cluster.idle_count() == 8
        cluster.verify_index()

    def test_double_fail_rejected(self, testbed):
        cluster = ClusterState(testbed)
        cluster.fail_node(0)
        with pytest.raises(SimulationError, match="already down"):
            cluster.fail_node(0)

    def test_recover_up_node_rejected(self, testbed):
        cluster = ClusterState(testbed)
        with pytest.raises(SimulationError, match="not down"):
            cluster.recover_node(0)

    def test_fail_with_residents_rejected(self, testbed, ep):
        cluster = ClusterState(testbed)
        cluster.place_slices([0], job_id=7, program=ep, procs=[4], ways=2,
                             bw=0.0, n_nodes=1)
        with pytest.raises(SimulationError, match="resident"):
            cluster.fail_node(0)


class TestJobEviction:
    def test_evict_requires_running(self):
        job = _single_job()[0]
        with pytest.raises(SimulationError):
            job.evict(1.0)

    def test_fail_mid_run_evicts_and_retries(self):
        cluster = ClusterSpec(num_nodes=2)
        ref = Simulation.from_policy_name(
            "CE", cluster, clone_jobs(_single_job()), sim_config=FAST,
        ).run()
        t_run = ref.makespan
        plan = FaultPlan(
            node_faults=(NodeFault(0, t_run / 2, t_run * 10),),
        )
        result = Simulation.from_policy_name(
            "CE", cluster, clone_jobs(_single_job()), sim_config=FAST,
            fault_plan=plan,
        ).run()
        job = result.finished_jobs[0]
        # Evicted halfway, restarted from scratch on the surviving node.
        assert job.retries == 1
        assert job.placement.node_ids == (1,)
        assert job.finish_time == pytest.approx(1.5 * t_run)
        assert job.lost_node_seconds == pytest.approx(t_run / 2)
        assert result.counters["node_failures"] == 1
        assert result.counters["job_evictions"] == 1
        assert result.counters["job_retries"] == 1
        assert result.badput_node_seconds() == pytest.approx(t_run / 2)
        assert 0.0 < result.badput_fraction() < 1.0

    def test_retry_budget_exhaustion_fails_job(self):
        cluster = ClusterSpec(num_nodes=1)
        ref = Simulation.from_policy_name(
            "CE", cluster, clone_jobs(_single_job()), sim_config=FAST,
        ).run()
        t_fail = ref.makespan / 2
        plan = FaultPlan(
            node_faults=(NodeFault(0, t_fail, None),),  # permanent loss
            retry=RetryPolicy(max_retries=0),
        )
        result = Simulation.from_policy_name(
            "CE", cluster, clone_jobs(_single_job()), sim_config=FAST,
            fault_plan=plan,
        ).run()
        assert result.finished_jobs == []
        [job] = result.failed_jobs
        assert job.state is JobState.FAILED
        assert job.finish_time == pytest.approx(t_fail)
        assert result.counters["jobs_failed"] == 1
        assert result.counters["job_retries"] == 0
        assert result.goodput_node_seconds() == 0.0
        assert result.badput_fraction() == 1.0

    def test_recovery_restores_full_capacity(self):
        # Two single-node jobs on a 1-node cluster: the node dies while
        # job 0 runs and recovers later; both jobs still finish.
        cluster = ClusterSpec(num_nodes=1)
        jobs = [
            Job(job_id=i, program=get_program("EP"), procs=28,
                submit_time=0.0)
            for i in range(2)
        ]
        ref = Simulation.from_policy_name(
            "CE", cluster, clone_jobs(jobs), sim_config=FAST,
        ).run()
        t_run = ref.makespan / 2
        plan = FaultPlan(
            node_faults=(NodeFault(0, t_run / 2, t_run),),
            retry=RetryPolicy(backoff_s=1.0),
        )
        result = Simulation.from_policy_name(
            "CE", cluster, clone_jobs(jobs), sim_config=FAST,
            fault_plan=plan,
        ).run()
        assert len(result.finished_jobs) == 2
        assert result.counters["node_recoveries"] == 1
        # Downtime (t_run/2) plus the lost half-run stretch the makespan.
        assert result.makespan > ref.makespan


class TestProfileOutage:
    def test_sns_degrades_to_exclusive_during_outage(self):
        cluster = ClusterSpec(num_nodes=8)
        jobs = random_sequence(seed=11, n_jobs=10)
        plan = FaultPlan(profile_outages=(ProfileOutage(0.0, 1e9),))
        result = Simulation.from_policy_name(
            "SNS", cluster, clone_jobs(jobs), sim_config=FAST,
            fault_plan=plan,
        ).run()
        assert result.counters["profile_outages"] == 1
        for job in result.finished_jobs:
            assert job.scale_factor == 1
            assert job.placement.dedicated_ways == cluster.node.llc_ways

    def test_sns_shares_again_after_outage_ends(self):
        cluster = ClusterSpec(num_nodes=8)
        jobs = [
            Job(job_id=j.job_id, program=j.program, procs=j.procs,
                submit_time=10.0, alpha=j.alpha,
                work_multiplier=j.work_multiplier)
            for j in random_sequence(seed=11, n_jobs=10)
        ]
        healthy = Simulation.from_policy_name(
            "SNS", cluster, clone_jobs(jobs), sim_config=FAST,
        ).run()
        # Outage over before any submit: identical to a healthy run
        # apart from the two extra profile events.
        plan = FaultPlan(profile_outages=(ProfileOutage(0.0, 5.0),))
        result = Simulation.from_policy_name(
            "SNS", cluster, clone_jobs(jobs), sim_config=FAST,
            fault_plan=plan,
        ).run()
        assert _schedule(result) == _schedule(healthy)


class TestFaultDeterminism:
    CLUSTER = ClusterSpec(num_nodes=8)

    @staticmethod
    def _plan():
        return FaultPlan.from_mtbf(
            seed=5, num_nodes=8, mtbf_s=4000.0, mttr_s=400.0,
            horizon_s=40000.0, retry=RetryPolicy(max_retries=5),
        )

    @staticmethod
    def _jobs():
        return random_sequence(seed=29, n_jobs=16)

    def _replay(self, policy):
        result = Simulation.from_policy_name(
            policy, self.CLUSTER, self._jobs(), sim_config=FAST,
            fault_plan=self._plan(),
        ).run()
        return result.makespan, _schedule(result), dict(
            (k, result.counters[k])
            for k in ("node_failures", "job_evictions", "job_retries",
                      "jobs_failed")
        )

    @pytest.mark.parametrize("policy", ["CE", "CE-BF", "CS", "SNS"])
    def test_repeated_fault_runs_identical(self, policy):
        assert self._replay(policy) == self._replay(policy)

    @pytest.mark.parametrize("policy", ["CE", "SNS"])
    def test_fault_runs_match_reference_kernels(self, policy):
        """The oracle, built on the scalar reference kernels, replays the
        faulty run's decisions, evictions and retries exactly."""
        result, _ = assert_matches_oracle(fast_core(
            policy, self.CLUSTER, self._jobs(), fault_plan=self._plan()))
        assert result.counters["job_evictions"] > 0


class TestEmptyPlanBitIdentity:
    @pytest.mark.parametrize("policy", ["CE", "CE-BF", "CS", "SNS"])
    def test_empty_plan_matches_no_plan(self, policy):
        cluster = ClusterSpec(num_nodes=8)
        jobs = random_sequence(seed=13, n_jobs=20)
        without = Simulation.from_policy_name(
            policy, cluster, clone_jobs(jobs), sim_config=FAST,
        ).run()
        empty = Simulation.from_policy_name(
            policy, cluster, clone_jobs(jobs), sim_config=FAST,
            fault_plan=FaultPlan(),
        ).run()
        assert empty.makespan == without.makespan
        assert empty.events == without.events
        assert _schedule(empty) == _schedule(without)
        # Each Simulation owns a fresh cluster and policy, so even the
        # kernel counters are per-run and must match exactly.
        assert empty.counters == without.counters
        assert empty.badput_node_seconds() == 0.0
        assert empty.badput_fraction() == 0.0


class TestAvailabilityExperiment:
    def test_smoke(self):
        from repro.experiments.availability import (
            format_availability,
            run_availability,
        )

        result = run_availability(
            mtbf_values=(3000.0,), n_sequences=1, n_jobs=8,
        )
        for policy in ("CE", "CS", "SNS"):
            assert result.stretch[(3000.0, policy)]
            assert 0.0 <= result.mean_badput(3000.0, policy) < 1.0
        text = format_availability(result)
        assert "makespan stretch" in text
        assert "SNS" in text
