"""Performance model: node-level contention + whole-job execution time.

This package turns static program models (:mod:`repro.apps`) and node
hardware models (:mod:`repro.hardware`) into the quantities the simulator
and profiler observe: per-job execution speed, per-node DRAM bandwidth,
IPC, and communication share.

The modules here are stateless: the kernels take no counter argument,
and the layer that calls one counts its calls (DESIGN.md §9).
"""

from repro.perfmodel.batch import arbitrate_nodes
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
