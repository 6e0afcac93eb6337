"""Figs 14-16 — overall performance on 36 random job sequences
(paper Section 6.2).

Each sequence (20 jobs, 16 or 28 processes, submitted simultaneously)
runs under CE, CS, and SNS on the 8-node testbed with the default
slowdown threshold alpha = 0.9.  The paper reports mean throughput gains
over CE of 13.7 % (CS) and 19.8 % (SNS); SNS improves on CE in 35/36
sequences and beats CS in 26/36; SNS's average normalized job runtime is
below CS's for every sequence while CS's worst-case job slowdown reaches
3.5x.

One run of this module produces the data behind Figs 14, 15, and 16 —
``fig15_relative`` and ``fig16_runtime`` post-process its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import SchedulerConfig, SimConfig
from repro.experiments.common import ascii_table, default_cluster, run_all_policies
from repro.experiments.parallel import run_grid
from repro.hardware.topology import ClusterSpec
from repro.metrics.means import arithmetic_mean
from repro.metrics.throughput import scaling_ratio
from repro.metrics.times import normalized_runtimes, runtime_stats
from repro.apps.catalog import PROGRAMS
from repro.profiling.database import ProfileDatabase
from repro.workloads.sequences import random_sequences


@dataclass(frozen=True)
class SequenceOutcome:
    """All per-sequence observables of the Section 6.2 study."""

    index: int
    scaling_ratio: float
    throughput: Dict[str, float]          # policy -> 1/avg-turnaround
    runtime_norm: Dict[str, Dict[str, float]]  # policy -> {geomean,max,min}
    job_runtime_norm: Dict[str, Dict[int, float]]  # policy -> job -> ratio

    def relative(self, policy: str, baseline: str = "CE") -> float:
        return self.throughput[policy] / self.throughput[baseline]


@dataclass
class Fig14Result:
    outcomes: List[SequenceOutcome] = field(default_factory=list)

    def mean_gain(self, policy: str, baseline: str = "CE") -> float:
        return arithmetic_mean(
            [o.relative(policy, baseline) for o in self.outcomes]
        ) - 1.0

    def wins(self, policy: str, baseline: str) -> int:
        return sum(
            1 for o in self.outcomes if o.relative(policy, baseline) > 1.0
        )


def _run_sequence(task: tuple) -> SequenceOutcome:
    """One sequence under all three policies (top-level: picklable).

    The shared profile database is prebuilt for every (program, procs)
    combination a sequence can draw, so lookups always hit and per-worker
    copies behave identically to the serially shared instance.
    """
    index, seq, cluster, config, database = task
    runs = run_all_policies(
        cluster, seq,
        scheduler_config=config,
        sim_config=SimConfig(),
        database=database,
    )
    ratio = scaling_ratio(runs["CE"].finished_jobs, database, cluster.node)
    norm = {
        policy: normalized_runtimes(runs[policy], runs["CE"])
        for policy in ("CS", "SNS")
    }
    return SequenceOutcome(
        index=index,
        scaling_ratio=ratio,
        throughput={p: r.throughput() for p, r in runs.items()},
        runtime_norm={p: runtime_stats(v) for p, v in norm.items()},
        job_runtime_norm=norm,
    )


def run_fig14(
    n_sequences: int = 36,
    n_jobs: int = 20,
    cluster: Optional[ClusterSpec] = None,
    base_seed: int = 2019,
    alpha: Optional[float] = None,
    jobs: Optional[int] = None,
) -> Fig14Result:
    cluster = cluster or default_cluster()
    config = SchedulerConfig()
    # One shared profile database: profiles persist across sequences,
    # as they would on a production cluster running recurring jobs.
    database = ProfileDatabase.build(
        PROGRAMS.values(), (16, 28), cluster.node, cluster.num_nodes,
        candidate_scales=config.candidate_scales,
    )
    tasks = [
        (i, seq, cluster, config, database)
        for i, seq in enumerate(
            random_sequences(n_sequences, n_jobs, base_seed=base_seed,
                             alpha=alpha)
        )
    ]
    return Fig14Result(outcomes=run_grid(_run_sequence, tasks, jobs=jobs))


def format_fig14(result: Fig14Result) -> str:
    rows = [
        [
            o.index,
            f"{o.scaling_ratio:.2f}",
            f"{o.relative('CS'):.3f}",
            f"{o.relative('SNS'):.3f}",
        ]
        for o in sorted(result.outcomes, key=lambda o: o.scaling_ratio)
    ]
    table = ascii_table(
        ["seq", "scaling ratio", "CS/CE", "SNS/CE"], rows
    )
    summary = (
        f"mean gain over CE: CS {result.mean_gain('CS'):+.1%}, "
        f"SNS {result.mean_gain('SNS'):+.1%}; "
        f"SNS>CE in {result.wins('SNS', 'CE')}/{len(result.outcomes)}, "
        f"SNS>CS in {result.wins('SNS', 'CS')}/{len(result.outcomes)}"
    )
    return f"{table}\n{summary}"
