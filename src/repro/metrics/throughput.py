"""Throughput and scaling-ratio metrics (paper Section 6.2)."""

from __future__ import annotations

from typing import Iterable

from repro.errors import ReproError
from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.execution import reference_time
from repro.profiling.classify import ScalingClass
from repro.profiling.database import ProfileDatabase
from repro.sim.job import Job
from repro.sim.runtime import SimulationResult


def throughput(result: SimulationResult) -> float:
    """Overall throughput: reciprocal of the average submit-to-finish
    time of all jobs in the sequence."""
    return result.throughput()


def relative_throughput(
    result: SimulationResult, baseline: SimulationResult
) -> float:
    """Throughput normalized to a baseline run of the same sequence."""
    return throughput(result) / throughput(baseline)


def scaling_ratio(
    jobs: Iterable[Job],
    database: ProfileDatabase,
    spec: NodeSpec,
) -> float:
    """Fraction of CE core-hours consumed by *scaling*-class jobs.

    The paper defines a sequence's scaling ratio as the percentage of
    core-hours (based on CE performance) consumed by jobs whose programs
    benefit from scaling out.
    """
    total = 0.0
    scaling = 0.0
    any_jobs = False
    for job in jobs:
        any_jobs = True
        profile = database.get(job.program.name, job.procs)
        core_hours = job.procs * reference_time(job.program, job.procs, spec)
        total += core_hours
        if profile.scaling_class is ScalingClass.SCALING:
            scaling += core_hours
    if not any_jobs or total <= 0:
        raise ReproError("scaling ratio of empty sequence")
    return scaling / total

