"""Determinism: identical inputs must produce identical simulations.

The entire toolchain is seeded; any nondeterminism (set iteration,
unstable sorts) would make the paper-reproduction record unverifiable.
"""

import pytest

from repro.config import SimConfig
from repro.experiments.common import POLICIES
from repro.hardware.topology import ClusterSpec
from repro.sim.runtime import Simulation
from repro.workloads.sequences import clone_jobs, random_sequence
from repro.workloads.trace import SyntheticTraceConfig, synthesize_trace


def run_once(policy_name, jobs, nodes=8):
    cluster = ClusterSpec(num_nodes=nodes)
    policy = POLICIES[policy_name](cluster)
    result = Simulation(cluster, policy, clone_jobs(jobs),
                        SimConfig()).run()
    return [
        (j.job_id, j.scale_factor, tuple(j.placement.node_ids),
         round(j.start_time, 9), round(j.finish_time, 9))
        for j in sorted(result.jobs, key=lambda j: j.job_id)
    ]


class TestSimulationDeterminism:
    @pytest.mark.parametrize("policy", ["CE", "CE-BF", "CS", "SNS"])
    def test_repeated_runs_identical(self, policy):
        jobs = random_sequence(seed=17, n_jobs=20)
        assert run_once(policy, jobs) == run_once(policy, jobs)

    def test_sns_schedule_identical_across_fresh_policies(self):
        jobs = random_sequence(seed=23, n_jobs=15)
        a = run_once("SNS", jobs)
        b = run_once("SNS", jobs)
        c = run_once("SNS", jobs)
        assert a == b == c


class TestWorkloadDeterminism:
    def test_trace_identical(self):
        cfg = SyntheticTraceConfig(n_jobs=200, duration_hours=50)
        a = synthesize_trace(seed=5, scaling_ratio=0.7, config=cfg)
        b = synthesize_trace(seed=5, scaling_ratio=0.7, config=cfg)
        assert [
            (j.program.name, j.procs, j.submit_time, j.work_multiplier)
            for j in a
        ] == [
            (j.program.name, j.procs, j.submit_time, j.work_multiplier)
            for j in b
        ]

    def test_trace_replay_identical(self):
        cfg = SyntheticTraceConfig(n_jobs=120, duration_hours=40,
                                   max_width_nodes=64)
        jobs = synthesize_trace(seed=5, scaling_ratio=0.7, config=cfg)
        cluster = ClusterSpec(num_nodes=512)
        def replay():
            policy = POLICIES["SNS"](cluster)
            result = Simulation(
                cluster, policy, clone_jobs(jobs),
                SimConfig(max_sim_time=1e12),
            ).run()
            return round(result.makespan, 6), round(
                result.mean_turnaround(), 6
            )
        assert replay() == replay()
