"""Kunafa-style profiling: simulated PMUs, LLC-manipulation sampling,
scaling trials, classification, and the JSON profile database.

The paper's profiler needs no application modification: it reads hardware
performance counters (Instructions Retired, Unhalted Core Cycles, Home
Agent REQUESTS) while periodically changing the CAT allocation, samples
the 2/4/8/20-way points, and linearly interpolates the rest (Section 5.1).
This package reproduces that pipeline against the simulated PMU.
"""

from repro._lazy import lazy_namespace

# Bound eagerly: once anything imports the ``classify`` submodule, the
# import system would set it over a lazily bound ``classify`` function.
from repro.profiling.classify import ScalingClass, classify

# Lazy (DESIGN.md §12): the SNS master never loads the online store.
__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    "repro.profiling.pmu": ("PMUSample", "read_pmu"),
    "repro.profiling.sampler": ("SAMPLED_WAYS", "sample_llc_curves"),
    "repro.profiling.profiler": ("ScaleProfile", "ProgramProfile",
                                 "profile_program"),
    "repro.profiling.database": ("ProfileDatabase",),
    "repro.profiling.online": ("OnlineProfileStore",),
})
__all__ += ["ScalingClass", "classify"]
