"""Property-based tests over whole simulations (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import PROGRAMS, get_program
from repro.config import SimConfig
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.execution import reference_time
from repro.scheduling.cs import CompactShareScheduler
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.job import Job, JobState
from repro.sim.runtime import Simulation

MULTI_NODE_PROGRAMS = [
    name for name, p in PROGRAMS.items() if p.max_nodes is None
]


@st.composite
def job_batches(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    jobs = []
    for i in range(n):
        name = draw(st.sampled_from(MULTI_NODE_PROGRAMS))
        procs = draw(st.sampled_from((8, 16, 28)))
        submit = draw(st.floats(min_value=0.0, max_value=500.0))
        jobs.append(
            Job(job_id=i, program=get_program(name), procs=procs,
                submit_time=submit)
        )
    return jobs


class TestSimulationProperties:
    @given(jobs=job_batches(),
           policy_cls=st.sampled_from(
               (CompactShareScheduler, SpreadNShareScheduler)))
    @settings(max_examples=40, deadline=None)
    def test_every_job_finishes_consistently(self, jobs, policy_cls):
        cluster = ClusterSpec(num_nodes=4)
        result = Simulation(
            cluster, policy_cls(cluster), jobs, SimConfig()
        ).run()
        spec = cluster.node
        for job in result.jobs:
            assert job.state is JobState.FINISHED
            assert job.finish_time >= job.start_time >= job.submit_time
            # No job can beat its best exclusive run by more than the
            # model's best speedup bound (spreading gains are bounded by
            # the reference/2-proc-per-node extremes).
            t_ref = reference_time(job.program, job.procs, spec)
            assert job.run_time >= 0.3 * t_ref * job.work_multiplier
            # All work was accounted for.
            assert job.remaining_work <= 1e-6 * max(1.0, job.total_work)

    @given(jobs=job_batches())
    @settings(max_examples=25, deadline=None)
    def test_cluster_returns_to_idle(self, jobs):
        cluster = ClusterSpec(num_nodes=4)
        sim = Simulation(
            cluster, SpreadNShareScheduler(cluster), jobs,
            SimConfig(),
        )
        sim.run()
        assert sim.cluster.idle_count() == cluster.num_nodes
        free_cores, booked_bw, alloc_ways, residents = \
            sim.cluster.gauge_columns()
        assert not residents.any()
        assert (free_cores == cluster.node.cores).all()
        assert not alloc_ways.any()
        assert not booked_bw.any()
        sim.cluster.verify_index()

    @given(jobs=job_batches())
    @settings(max_examples=25, deadline=None)
    def test_makespan_bounds(self, jobs):
        """Makespan is at least the longest single job and at most the
        serial sum of worst-case runtimes plus the last submission."""
        cluster = ClusterSpec(num_nodes=4)
        result = Simulation(
            cluster, SpreadNShareScheduler(cluster), jobs,
            SimConfig(),
        ).run()
        spec = cluster.node
        longest = max(
            reference_time(j.program, j.procs, spec) * j.work_multiplier
            for j in jobs
        )
        assert result.makespan >= 0.29 * longest
        serial_bound = max(j.submit_time for j in jobs) + sum(
            4.0 * reference_time(j.program, j.procs, spec)
            * j.work_multiplier
            for j in jobs
        )
        assert result.makespan <= serial_bound
