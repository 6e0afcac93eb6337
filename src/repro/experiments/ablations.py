"""Ablations of SNS design choices (DESIGN.md Section 4).

Each variant disables or perturbs one mechanism the paper's design
argues for, and re-runs the Section 6.2 workload (random sequences vs a
shared CE baseline):

* ``beta=0`` — drop the extra weight on LLC-way occupancy in the node
  selection metric (the paper uses beta=2 because cache interference
  hurts most);
* ``no-tolerance`` — always chase the single fastest profiled scale,
  even for near-ties (more fragmentation);
* ``no-residual-share`` — keep unallocated LLC ways idle instead of
  giving them away in equal shares;
* ``mba`` — Intel-MBA-style hard bandwidth enforcement (the paper's
  testbed could only estimate; Section 5.2 expects MBA to help QoS);
* ``headroom-0.8`` — book at most 80 % of node peak bandwidth
  (conservative co-location);
* ``scales-1-2`` — restrict the candidate scale factors to {1, 2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SchedulerConfig, SimConfig
from repro.experiments.common import ascii_table, default_cluster
from repro.experiments.parallel import run_grid
from repro.hardware.topology import ClusterSpec
from repro.metrics.means import arithmetic_mean, geometric_mean
from repro.metrics.times import normalized_runtimes
from repro.scheduling.ce import CompactExclusiveScheduler
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.runtime import Simulation
from repro.workloads.sequences import clone_jobs, random_sequences


@dataclass(frozen=True)
class AblationVariant:
    name: str
    config: SchedulerConfig


def default_variants() -> List[AblationVariant]:
    return [
        AblationVariant("baseline", SchedulerConfig()),
        AblationVariant("beta=0", SchedulerConfig(beta=0.0)),
        AblationVariant("no-tolerance", SchedulerConfig(scale_tolerance=0.0)),
        AblationVariant(
            "no-residual-share", SchedulerConfig(share_residual=False)
        ),
        AblationVariant("mba", SchedulerConfig(enforce_bw=True)),
        AblationVariant("headroom-0.8", SchedulerConfig(bw_headroom=0.8)),
        AblationVariant(
            "scales-1-2", SchedulerConfig(candidate_scales=(1, 2))
        ),
    ]


@dataclass(frozen=True)
class VariantOutcome:
    name: str
    mean_gain_over_ce: float        # arithmetic mean of throughput ratios - 1
    mean_norm_runtime: float        # geometric mean of per-job runtime/CE
    alpha_violations: int           # jobs slower than 1/alpha x CE
    total_jobs: int


@dataclass
class AblationResult:
    outcomes: List[VariantOutcome] = field(default_factory=list)

    def get(self, name: str) -> VariantOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)


def _run_sequence(task: tuple) -> List[Tuple[float, List[float]]]:
    """One sequence: the shared CE baseline plus every SNS variant.

    Returns ``[(throughput_gain, per_job_norms), ...]`` in variant order
    (top-level so it pickles into worker processes).
    """
    seq, cluster, variants = task
    ce = Simulation(
        cluster, CompactExclusiveScheduler(cluster), clone_jobs(seq),
        SimConfig(),
    ).run()
    out: List[Tuple[float, List[float]]] = []
    for variant in variants:
        sns = Simulation(
            cluster,
            SpreadNShareScheduler(cluster, variant.config),
            clone_jobs(seq),
            SimConfig(),
        ).run()
        norm = normalized_runtimes(sns, ce)
        out.append((sns.throughput() / ce.throughput(), list(norm.values())))
    return out


def run_ablation(
    n_sequences: int = 12,
    n_jobs: int = 20,
    cluster: Optional[ClusterSpec] = None,
    variants: Optional[Sequence[AblationVariant]] = None,
    base_seed: int = 2019,
    alpha: float = 0.9,
    jobs: Optional[int] = None,
) -> AblationResult:
    cluster = cluster or default_cluster()
    variants = list(variants) if variants is not None else default_variants()
    sequences = random_sequences(n_sequences, n_jobs, base_seed=base_seed)

    # Sequence-major fan-out (each sequence is independent; the CE
    # baseline is computed once per sequence), merged variant-major.
    per_sequence = run_grid(
        _run_sequence,
        [(seq, cluster, variants) for seq in sequences],
        jobs=jobs,
    )

    result = AblationResult()
    bound = 1.0 / alpha
    for vi, variant in enumerate(variants):
        gains: List[float] = []
        norms: List[float] = []
        for seq_out in per_sequence:
            gain, seq_norms = seq_out[vi]
            gains.append(gain)
            norms.extend(seq_norms)
        violations = sum(1 for v in norms if v > bound + 1e-9)
        result.outcomes.append(
            VariantOutcome(
                name=variant.name,
                mean_gain_over_ce=arithmetic_mean(gains) - 1.0,
                mean_norm_runtime=geometric_mean(norms),
                alpha_violations=violations,
                total_jobs=len(norms),
            )
        )
    return result


def format_ablation(result: AblationResult) -> str:
    rows = [
        [
            o.name,
            f"{o.mean_gain_over_ce:+.1%}",
            f"{o.mean_norm_runtime:.3f}",
            f"{o.alpha_violations}/{o.total_jobs}",
        ]
        for o in result.outcomes
    ]
    return ascii_table(
        ["variant", "throughput vs CE", "geo-mean runtime", "alpha viol."],
        rows,
    )
