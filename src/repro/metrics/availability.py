"""Availability metrics: what node failures cost a policy.

Fault injection (DESIGN.md §8) splits consumed node-seconds into
*goodput* (final, successful attempts) and *badput* (attempts a node
failure killed).  These helpers aggregate the split across runs and
express the makespan cost of running under failures relative to the
same workload on a healthy cluster.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.runtime import SimulationResult


def makespan_stretch(faulty: SimulationResult,
                     fault_free: SimulationResult) -> float:
    """Makespan under faults over fault-free makespan (>= 1.0 in
    expectation: lost work must be redone on less capacity)."""
    if fault_free.makespan <= 0:
        raise SimulationError("fault-free makespan must be positive")
    return faulty.makespan / fault_free.makespan
