"""Performance model: node-level contention + whole-job execution time.

This package turns static program models (:mod:`repro.apps`) and node
hardware models (:mod:`repro.hardware`) into the quantities the simulator
and profiler observe: per-job execution speed, per-node DRAM bandwidth,
IPC, and communication share.

The batched-kernel counters live on
:class:`repro.perfmodel.context.PerfContext`, owned by each simulation;
the modules here are stateless.
"""

from repro.perfmodel.batch import arbitrate_nodes
from repro.perfmodel.context import MAX_ENTRIES, PerfContext
from repro.perfmodel.contention import Slice, arbitrate_node
from repro.perfmodel.execution import (
    NodeConditions,
    job_time,
    job_speed,
    predict_exclusive_time,
    reference_time,
    scale_factor_of,
)

__all__ = [
    "MAX_ENTRIES",
    "PerfContext",
    "Slice",
    "arbitrate_node",
    "arbitrate_nodes",
    "NodeConditions",
    "job_time",
    "job_speed",
    "predict_exclusive_time",
    "reference_time",
    "scale_factor_of",
]
