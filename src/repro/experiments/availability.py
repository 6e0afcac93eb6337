"""Availability experiment: MTBF sweep over CE / CS / SNS.

The paper evaluates a healthy cluster; this experiment asks what
happens to its comparison when nodes fail.  Each sequence is replayed
under every policy with the *same* seeded MTBF/MTTR fault plan (so all
policies see identical crash times), sweeping the per-node MTBF from
rare to frequent failures.  Reported per (MTBF, policy):

* makespan stretch — faulty makespan over the fault-free makespan of
  the same policy on the same sequence;
* badput fraction — node-seconds burned by killed attempts over all
  node-seconds consumed;
* evictions and jobs that exhausted the retry budget.

Spreading cuts per-failure loss (fewer node-seconds resident on any one
node) but widens the blast radius (more jobs touch a failing node);
the sweep quantifies which effect wins at each failure rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import RetryPolicy, SimConfig
from repro.experiments.common import (
    ascii_table,
    default_cluster,
    run_policy,
)
from repro.faults.plan import FaultPlan
from repro.hardware.topology import ClusterSpec
from repro.metrics.availability import makespan_stretch
from repro.metrics.means import arithmetic_mean
from repro.workloads.sequences import random_sequences

POLICY_ORDER = ("CE", "CS", "SNS")


@dataclass
class AvailabilityResult:
    """Per-(mtbf, policy) lists, one entry per sequence."""

    mtbf_values: Tuple[float, ...]
    #: (mtbf, policy) -> per-sequence makespan stretch vs fault-free
    stretch: Dict[Tuple[float, str], List[float]] = field(default_factory=dict)
    #: (mtbf, policy) -> per-sequence badput fraction
    badput: Dict[Tuple[float, str], List[float]] = field(default_factory=dict)
    #: (mtbf, policy) -> total evictions across sequences
    evictions: Dict[Tuple[float, str], int] = field(default_factory=dict)
    #: (mtbf, policy) -> total jobs that exhausted their retry budget
    failed: Dict[Tuple[float, str], int] = field(default_factory=dict)

    def mean_stretch(self, mtbf: float, policy: str) -> float:
        return arithmetic_mean(self.stretch[(mtbf, policy)])

    def mean_badput(self, mtbf: float, policy: str) -> float:
        return arithmetic_mean(self.badput[(mtbf, policy)])


def run_availability(
    mtbf_values: Tuple[float, ...] = (20000.0, 5000.0, 1500.0),
    n_sequences: int = 6,
    n_jobs: int = 20,
    cluster: Optional[ClusterSpec] = None,
    base_seed: int = 2019,
    fault_seed: int = 7,
    mttr_fraction: float = 0.1,
    retry: RetryPolicy = RetryPolicy(max_retries=5, backoff_s=0.0),
) -> AvailabilityResult:
    cluster = cluster or default_cluster()
    sim_config = SimConfig()
    result = AvailabilityResult(mtbf_values=tuple(mtbf_values))
    sequences = random_sequences(n_sequences, n_jobs, base_seed=base_seed)
    for seq_index, jobs in enumerate(sequences):
        # Fault-free reference makespans for the stretch denominator.
        reference = {
            policy: run_policy(policy, cluster, jobs, sim_config=sim_config)
            for policy in POLICY_ORDER
        }
        # The fault horizon must cover the whole (stretched) run; badly
        # stretched runs simply see a failure-free tail, which only
        # understates the penalty at extreme MTBFs.
        horizon = 4.0 * max(r.makespan for r in reference.values())
        for mtbf in mtbf_values:
            plan = FaultPlan.from_mtbf(
                seed=fault_seed + seq_index,
                num_nodes=cluster.num_nodes,
                mtbf_s=mtbf,
                mttr_s=mtbf * mttr_fraction,
                horizon_s=horizon,
                retry=retry,
            )
            for policy in POLICY_ORDER:
                run = run_policy(
                    policy, cluster, jobs,
                    sim_config=sim_config, fault_plan=plan,
                )
                key = (mtbf, policy)
                result.stretch.setdefault(key, []).append(
                    makespan_stretch(run, reference[policy])
                )
                result.badput.setdefault(key, []).append(
                    run.badput_fraction()
                )
                result.evictions[key] = (
                    result.evictions.get(key, 0)
                    + run.counters["job_evictions"]
                )
                result.failed[key] = (
                    result.failed.get(key, 0) + len(run.failed_jobs)
                )
    return result


def format_availability(result: AvailabilityResult) -> str:
    rows = [
        [
            f"{mtbf:.0f}s",
            policy,
            f"{result.mean_stretch(mtbf, policy):.3f}x",
            f"{result.mean_badput(mtbf, policy):.1%}",
            str(result.evictions[(mtbf, policy)]),
            str(result.failed[(mtbf, policy)]),
        ]
        for mtbf in result.mtbf_values
        for policy in POLICY_ORDER
    ]
    table = ascii_table(
        ["MTBF", "policy", "makespan stretch", "badput", "evictions",
         "failed"],
        rows,
    )
    worst = result.mtbf_values[-1]
    lead = min(
        POLICY_ORDER, key=lambda p: result.mean_stretch(worst, p)
    )
    return (
        f"{table}\n"
        f"lowest stretch at MTBF={worst:.0f}s: {lead} "
        f"(same seeded fault plans for every policy)"
    )
