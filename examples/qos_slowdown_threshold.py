#!/usr/bin/env python3
"""The QoS knob: per-job slowdown thresholds and MBA enforcement.

The slowdown threshold alpha tells SNS how much co-scheduling slowdown
a job tolerates (paper Section 4.3, default 0.9).  Stricter alpha books
more LLC ways per job — better per-job QoS, less co-location.  With the
Intel-MBA-style hard bandwidth enforcement (Section 5.2) the bandwidth
side of the booking becomes a guarantee too.

    python examples/qos_slowdown_threshold.py
"""

from repro import (
    ClusterSpec,
    CompactExclusiveScheduler,
    SchedulerConfig,
    SimConfig,
    Simulation,
    SpreadNShareScheduler,
    random_sequence,
)
from repro.metrics.times import normalized_runtimes
from repro.workloads.sequences import clone_jobs


def run_variant(jobs, cluster, alpha=None, enforce_bw=False):
    config = SchedulerConfig(
        default_alpha=alpha if alpha is not None else 0.9,
        enforce_bw=enforce_bw,
    )
    policy = SpreadNShareScheduler(cluster, config)
    return Simulation(cluster, policy, clone_jobs(jobs),
                      SimConfig()).run()


def main() -> None:
    cluster = ClusterSpec(num_nodes=8)
    jobs = random_sequence(seed=5, n_jobs=20)
    ce = Simulation(
        cluster, CompactExclusiveScheduler(cluster), clone_jobs(jobs),
        SimConfig(),
    ).run()

    print(f"{'variant':>18s} {'throughput vs CE':>17s} "
          f"{'worst job slowdown':>19s} {'alpha violations':>17s}")
    for label, alpha, mba in (
        ("alpha=0.70", 0.70, False),
        ("alpha=0.90 (dflt)", 0.90, False),
        ("alpha=0.99", 0.99, False),
        ("alpha=0.90 + MBA", 0.90, True),
    ):
        result = run_variant(jobs, cluster, alpha=alpha, enforce_bw=mba)
        norm = normalized_runtimes(result, ce)
        bound = 1.0 / alpha
        violations = sum(1 for v in norm.values() if v > bound + 1e-9)
        print(f"{label:>18s} {result.throughput()/ce.throughput()-1:>+16.1%} "
              f"{max(norm.values()):>18.2f}x {violations:>13d}/20")

    print("\nLower alpha = more aggressive co-location (throughput up, "
          "per-job QoS down);\nMBA turns the bandwidth booking from an "
          "estimate into a hard guarantee.")


if __name__ == "__main__":
    main()
