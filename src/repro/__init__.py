"""repro — a full reproduction of *Spread-n-Share* (SC '19).

Spread-n-Share (SNS) is a batch-scheduling strategy that automatically
scales resource-bound parallel jobs out onto more nodes and co-locates
resource-compatible jobs on shared nodes, using per-program profiles of
LLC-way sensitivity and memory-bandwidth consumption plus CAT-style
cache-way partitioning.

Quickstart::

    from repro import (
        ClusterSpec, Simulation, SpreadNShareScheduler, random_sequence,
    )

    cluster = ClusterSpec(num_nodes=8)
    jobs = random_sequence(seed=1, n_jobs=20)
    policy = SpreadNShareScheduler(cluster)
    result = Simulation(cluster, policy, jobs).run()
    print(result.throughput())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced figure.
"""

from repro._lazy import lazy_namespace

__version__ = "1.0.0"

# Each name is imported from its module on first use (DESIGN.md §12).
__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    "repro.config": ("SchedulerConfig", "SimConfig", "RetryPolicy"),
    "repro.faults.plan": ("FaultPlan", "NodeFault", "ProfileOutage"),
    "repro.apps.catalog": ("PROGRAMS", "get_program", "program_names"),
    "repro.apps.program": ("ProgramSpec",),
    "repro.hardware.topology": ("ClusterSpec",),
    "repro.hardware.node_spec": ("NodeSpec",),
    "repro.profiling.database": ("ProfileDatabase",),
    "repro.profiling.online": ("OnlineProfileStore",),
    "repro.profiling.profiler": ("profile_program",),
    "repro.scheduling.ce": ("CompactExclusiveScheduler",),
    "repro.scheduling.cs": ("CompactShareScheduler",),
    "repro.scheduling.sns": ("SpreadNShareScheduler",),
    "repro.scheduling.online_sns": ("OnlineSpreadNShareScheduler",),
    "repro.sim.job": ("Job",),
    "repro.sim.runtime": ("Simulation", "SimulationResult"),
    "repro.workloads.sequences": ("random_sequence", "random_sequences"),
    "repro.workloads.mixes": ("controlled_mix", "mix_ladder"),
    "repro.workloads.trace": ("synthesize_trace",),
})
__all__.append("__version__")
