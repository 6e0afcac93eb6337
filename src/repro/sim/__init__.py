"""Discrete-event cluster simulator.

The simulator is the substitute for the paper's physical testbed: it holds
runtime node state (cores, CAT way ledger, booked bandwidth), integrates
job progress piecewise under the analytic performance model, and invokes a
scheduling policy at every scheduling point (job submission / completion),
exactly as Uberun does.
"""

from repro._lazy import lazy_namespace

# Lazy (DESIGN.md §12): a run without telemetry never loads the recorder.
__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    "repro.sim.job": ("Job", "JobState"),
    "repro.sim.cluster": ("ClusterState",),
    "repro.sim.engine": ("EventQueue",),
    "repro.sim.runtime": ("SchedulerCore", "SimSnapshot", "Simulation",
                          "SimulationResult"),
    "repro.obs.telemetry": ("TelemetryRecorder",),
})
