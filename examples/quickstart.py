#!/usr/bin/env python3
"""Quickstart: schedule one random job sequence under CE, CS, and SNS.

Runs the paper's three policies on the 8-node testbed cluster and prints
the throughput, average times, and per-job schedule of the SNS run.

    python examples/quickstart.py [seed]
"""

import sys

from repro import (
    ClusterSpec,
    CompactExclusiveScheduler,
    CompactShareScheduler,
    SimConfig,
    Simulation,
    SpreadNShareScheduler,
    random_sequence,
)
from repro.metrics.times import breakdown
from repro.workloads.sequences import clone_jobs


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    cluster = ClusterSpec(num_nodes=8)
    jobs = random_sequence(seed=seed, n_jobs=20)

    print(f"Sequence (seed {seed}):",
          ", ".join(f"{j.program.name}x{j.procs}" for j in jobs))
    print()

    results = {}
    for name, policy_cls in (
        ("CE", CompactExclusiveScheduler),
        ("CS", CompactShareScheduler),
        ("SNS", SpreadNShareScheduler),
    ):
        policy = policy_cls(cluster)
        results[name] = Simulation(
            cluster, policy, clone_jobs(jobs), SimConfig()
        ).run()

    print(f"{'policy':6s} {'makespan':>10s} {'throughput':>11s} "
          f"{'avg wait':>9s} {'avg run':>9s}")
    for name, result in results.items():
        bd = breakdown(result)
        print(f"{name:6s} {result.makespan:9.0f}s {result.throughput()*1e3:10.4f}/ks "
              f"{bd.wait:8.0f}s {bd.run:8.0f}s")

    ce, sns = results["CE"], results["SNS"]
    print(f"\nSNS throughput gain over CE: "
          f"{sns.throughput() / ce.throughput() - 1.0:+.1%}")

    print("\nSNS schedule:")
    for job in sorted(sns.finished_jobs, key=lambda j: j.start_time):
        p = job.placement
        print(f"  t={job.start_time:6.0f}s  {job.program.name:4s} "
              f"p{job.procs:<3d} scale {job.scale_factor}x on "
              f"{p.n_nodes} node(s), {p.dedicated_ways:2d} LLC ways, "
              f"{p.booked_bw:5.1f} GB/s booked -> ran {job.run_time:6.0f}s")


if __name__ == "__main__":
    main()
