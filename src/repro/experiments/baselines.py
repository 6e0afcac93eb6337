"""Four-way baseline comparison: CE, CE+EASY backfill, CS, SNS.

Beyond the paper's CE/CS/SNS trio, this adds EASY backfilling to CE —
the standard production upgrade — to separate how much of SNS's
advantage comes from *queue flexibility* (which backfilling also has)
versus *resource awareness* (which only SNS has).

The paper's random sequences use 16- or 28-process jobs, whose CE
footprint is a single node — backfilling degenerates to FIFO there.
This experiment therefore mixes in wider jobs (2- and 4-node CE
footprints) so head-of-line blocking actually occurs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.catalog import FIG13_PROGRAMS
from repro.config import SimConfig
from repro.experiments.common import ascii_table, default_cluster, run_all_policies
from repro.hardware.topology import ClusterSpec
from repro.metrics.means import arithmetic_mean
from repro.workloads.sequences import random_sequences

POLICY_ORDER = ("CE", "CE-BF", "CS", "SNS")


@dataclass
class BaselinesResult:
    #: per-sequence throughput ratios vs CE, keyed by policy
    relative: Dict[str, List[float]] = field(default_factory=dict)
    #: per-sequence maximum wait of wide (multi-node-footprint) jobs
    wide_max_wait: Dict[str, List[float]] = field(default_factory=dict)

    def mean_gain(self, policy: str) -> float:
        return arithmetic_mean(self.relative[policy]) - 1.0

    def wins_over(self, policy: str, other: str) -> int:
        return sum(
            1 for a, b in zip(self.relative[policy], self.relative[other])
            if a > b
        )

    def mean_wide_max_wait(self, policy: str) -> float:
        return arithmetic_mean(self.wide_max_wait[policy])


def run_baselines(
    n_sequences: int = 12,
    n_jobs: int = 20,
    cluster: Optional[ClusterSpec] = None,
    base_seed: int = 2019,
    proc_choices=(16, 28, 56, 112),
) -> BaselinesResult:
    cluster = cluster or default_cluster()
    result = BaselinesResult(relative={p: [] for p in POLICY_ORDER})
    # Wide jobs need multi-node-capable programs: the single-node
    # TensorFlow examples (GAN/RNN) are excluded, as in the paper's
    # Fig 13 scaling study.
    for jobs in random_sequences(
        n_sequences, n_jobs, base_seed=base_seed,
        proc_choices=proc_choices, program_names=FIG13_PROGRAMS,
    ):
        runs = run_all_policies(
            cluster, jobs, policy_names=POLICY_ORDER,
            sim_config=SimConfig(),
        )
        ce = runs["CE"].throughput()
        spec = cluster.node
        for policy in POLICY_ORDER:
            result.relative[policy].append(runs[policy].throughput() / ce)
            wide_waits = [
                j.wait_time for j in runs[policy].finished_jobs
                if spec.min_nodes_for(j.procs) > 1
            ]
            result.wide_max_wait.setdefault(policy, []).append(
                max(wide_waits) if wide_waits else 0.0
            )
    return result


def format_baselines(result: BaselinesResult) -> str:
    rows = [
        [
            policy,
            f"{result.mean_gain(policy):+.1%}",
            f"{min(result.relative[policy]):.3f}",
            f"{max(result.relative[policy]):.3f}",
            f"{result.mean_wide_max_wait(policy):.0f}s",
        ]
        for policy in POLICY_ORDER
    ]
    table = ascii_table(
        ["policy", "mean vs CE", "min", "max", "wide-job max wait"], rows
    )
    n = len(result.relative["SNS"])
    return (
        f"{table}\n"
        f"SNS beats CE-BF in {result.wins_over('SNS', 'CE-BF')}/{n} "
        f"sequences (resource awareness beyond queue flexibility)"
    )
