"""Experiment-harness helpers."""

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.experiments.common import (
    POLICIES,
    ascii_table,
    default_cluster,
    run_all_policies,
    run_policy,
)
from repro.sim.job import Job


class TestAsciiTable:
    def test_alignment(self):
        out = ascii_table(["a", "bb"], [["1", "22"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows equally wide

    def test_empty_rows(self):
        out = ascii_table(["col"], [])
        assert "col" in out

    def test_numbers_coerced(self):
        out = ascii_table(["n"], [[42]])
        assert "42" in out


class TestRunners:
    def test_default_cluster_is_testbed(self):
        assert default_cluster().num_nodes == 8

    def test_policies_registry(self):
        assert set(POLICIES) == {"CE", "CE-BF", "CS", "SNS"}

    def test_run_policy_clones_jobs(self):
        job = Job(job_id=0, program=get_program("EP"), procs=16)
        result = run_policy("CE", default_cluster(), [job],
                            sim_config=SimConfig())
        # The original job object must stay pristine (pending).
        assert job.start_time is None
        assert result.finished_jobs[0].job_id == 0

    def test_run_all_policies_same_workload(self):
        jobs = [Job(job_id=i, program=get_program("EP"), procs=16)
                for i in range(3)]
        runs = run_all_policies(
            default_cluster(), jobs, policy_names=("CE", "CS"),
            sim_config=SimConfig(),
        )
        assert set(runs) == {"CE", "CS"}
        for result in runs.values():
            assert len(result.finished_jobs) == 3

    def test_unknown_policy_raises(self):
        job = Job(job_id=0, program=get_program("EP"), procs=16)
        with pytest.raises(KeyError):
            run_policy("FIFO", default_cluster(), [job])
