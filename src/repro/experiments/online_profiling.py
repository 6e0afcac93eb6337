"""Online-profiling convergence (paper Sections 4.1-4.2).

A new program's profile is built by piggybacking trial scales on its
first few production runs: run 1 executes exclusively at 1x (the CE
model), run 2 at 2x, and so on until spreading saturates; afterwards the
program is scheduled like any profiled one.  This experiment submits
repeated instances of one program and records the scale factor and
normalized runtime of each repetition — converging to the ideal scale
"within several trials", as the paper promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.experiments.common import ascii_table
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.execution import reference_time
from repro.profiling.online import OnlineProfileStore
from repro.scheduling.online_sns import OnlineSpreadNShareScheduler
from repro.sim.job import Job
from repro.sim.runtime import Simulation


@dataclass(frozen=True)
class Repetition:
    index: int
    scale: int
    normalized_runtime: float  # vs the CE solo reference


@dataclass(frozen=True)
class ConvergenceResult:
    program: str
    repetitions: List[Repetition]
    converged_scale: int
    ideal_scale: int       # fastest profiled scale
    preferred_scale: int   # what SNS should pick (class + tolerance aware)

    @property
    def converged(self) -> bool:
        return self.converged_scale == self.preferred_scale


def run_convergence(
    program_name: str = "CG",
    repetitions: int = 8,
    procs: int = 16,
    cluster: Optional[ClusterSpec] = None,
    gap_s: float = 2000.0,
) -> ConvergenceResult:
    """Submit ``repetitions`` back-to-back instances of one program to an
    otherwise empty cluster under online-profiling SNS."""
    cluster = cluster or ClusterSpec(num_nodes=8)
    program = get_program(program_name)
    jobs = [
        Job(job_id=i, program=program, procs=procs, submit_time=i * gap_s)
        for i in range(repetitions)
    ]
    store = OnlineProfileStore(
        spec=cluster.node, max_cluster_nodes=cluster.num_nodes
    )
    policy = OnlineSpreadNShareScheduler(cluster, store=store)
    Simulation(cluster, policy, jobs, SimConfig()).run()

    t_ref = reference_time(program, procs, cluster.node)
    reps = [
        Repetition(
            index=i,
            scale=job.scale_factor,
            normalized_runtime=job.run_time / t_ref,
        )
        for i, job in enumerate(jobs)
    ]
    profile = store.profile(program, procs)
    return ConvergenceResult(
        program=program_name,
        repetitions=reps,
        converged_scale=reps[-1].scale,
        ideal_scale=profile.ideal_scale,
        preferred_scale=profile.preferred_scale_order(
            policy.config.scale_tolerance
        )[0],
    )


def format_convergence(result: ConvergenceResult) -> str:
    rows = [
        [r.index + 1, f"{r.scale}x", f"{r.normalized_runtime:.3f}"]
        for r in result.repetitions
    ]
    table = ascii_table(["run", "scale", "time / CE solo"], rows)
    status = "converged" if result.converged else "NOT converged"
    return (
        f"{result.program}:\n{table}\n"
        f"{status} to {result.converged_scale}x "
        f"(preferred: {result.preferred_scale}x, "
        f"fastest profiled: {result.ideal_scale}x)"
    )
