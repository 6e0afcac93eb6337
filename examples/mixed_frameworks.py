#!/usr/bin/env python3
"""Cross-framework co-location: the paper's Fig 1 scenario, extended.

Uberun schedules *across* frameworks — MPI (NPB), Spark (HiBench),
TensorFlow, and replicated sequential (SPEC) jobs land on the same
nodes when their resource demands are complementary.  This example
submits one job per framework plus a bandwidth hog, shows the SNS
placement (who shares a node with whom, and the per-node way split),
and compares node usage against CE.

    python examples/mixed_frameworks.py
"""

from collections import defaultdict

from repro import (
    ClusterSpec,
    CompactExclusiveScheduler,
    Job,
    SimConfig,
    Simulation,
    SpreadNShareScheduler,
    get_program,
)
from repro.workloads.sequences import clone_jobs


def main() -> None:
    cluster = ClusterSpec(num_nodes=4)
    jobs = [
        Job(job_id=0, program=get_program("MG"), procs=16),   # MPI, mem-BW hog
        Job(job_id=1, program=get_program("TS"), procs=16),   # Spark, cache-loving
        Job(job_id=2, program=get_program("NW"), procs=16),   # Spark, cache hog
        Job(job_id=3, program=get_program("RNN"), procs=16),  # TensorFlow, 1 node
        Job(job_id=4, program=get_program("HC"), procs=16),   # SPEC replicas
    ]

    for name, policy_cls in (
        ("CE", CompactExclusiveScheduler), ("SNS", SpreadNShareScheduler),
    ):
        result = Simulation(
            cluster, policy_cls(cluster), clone_jobs(jobs),
            SimConfig(),
        ).run()
        print(f"=== {name}: makespan {result.makespan:.0f}s, "
              f"node-seconds {result.node_seconds():.0f}")
        by_node = defaultdict(list)
        for job in result.finished_jobs:
            for nid in job.placement.node_ids:
                by_node[nid].append(job)
        for nid in sorted(by_node):
            residents = ", ".join(
                f"{j.program.name}({j.program.framework},"
                f"{j.placement.procs_per_node[nid]}c,"
                f"{j.placement.dedicated_ways}w)"
                for j in sorted(by_node[nid], key=lambda j: j.job_id)
            )
            print(f"  node {nid}: {residents}")
        for job in sorted(result.finished_jobs, key=lambda j: j.job_id):
            print(f"  {job.program.name:4s} wait {job.wait_time:6.0f}s  "
                  f"run {job.run_time:6.0f}s  scale {job.scale_factor}x")
        print()


if __name__ == "__main__":
    main()
