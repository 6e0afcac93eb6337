"""Discrete-event cluster simulator.

The simulator is the substitute for the paper's physical testbed: it holds
runtime node state (cores, CAT way ledger, booked bandwidth), integrates
job progress piecewise under the analytic performance model, and invokes a
scheduling policy at every scheduling point (job submission / completion),
exactly as Uberun does.
"""

from repro.sim.job import Job, JobState
from repro.sim.cluster import ClusterState
from repro.sim.engine import EventQueue
from repro.sim.runtime import (
    SchedulerCore,
    SimSnapshot,
    Simulation,
    SimulationResult,
)
from repro.obs.telemetry import TelemetryRecorder

__all__ = [
    "Job",
    "JobState",
    "ClusterState",
    "EventQueue",
    "SchedulerCore",
    "SimSnapshot",
    "Simulation",
    "SimulationResult",
    "TelemetryRecorder",
]
