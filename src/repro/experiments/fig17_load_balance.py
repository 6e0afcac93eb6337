"""Figs 17-18 — load balance in memory-bandwidth usage
(paper Section 6.2).

One random job sequence runs under CE and SNS with telemetry on; the
per-node bandwidth is averaged over 30-second episodes into the node x
episode heat matrix (Fig 17) and its histogram (Fig 18).  SNS smooths
the distribution — fewer near-peak and near-idle episodes — dropping
the bandwidth variance (sigma / peak) from 0.40 to 0.25 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import SimConfig
from repro.experiments.common import default_cluster, run_all_policies
from repro.hardware.topology import ClusterSpec
from repro.metrics.balance import bandwidth_histogram, episode_variance
from repro.workloads.sequences import random_sequence


@dataclass(frozen=True)
class Fig17Result:
    episode_seconds: float
    matrices: Dict[str, np.ndarray]            # policy -> node x episode GB/s
    variance: Dict[str, float]                 # policy -> sigma/peak
    histograms: Dict[str, Tuple[np.ndarray, np.ndarray]]  # (edges, counts)


def run_fig17(
    seed: int = 42,
    n_jobs: int = 20,
    cluster: Optional[ClusterSpec] = None,
    episode_seconds: float = 30.0,
) -> Fig17Result:
    cluster = cluster or default_cluster()
    jobs = random_sequence(seed=seed, n_jobs=n_jobs)
    runs = run_all_policies(
        cluster, jobs, policy_names=("CE", "SNS"),
        sim_config=SimConfig(telemetry=True),
    )
    peak = cluster.node.peak_bw
    matrices = {}
    variance = {}
    histograms = {}
    for policy, result in runs.items():
        assert result.telemetry is not None
        matrices[policy] = result.telemetry.episode_matrix(
            episode_seconds, result.makespan
        )
        variance[policy] = episode_variance(result, peak, episode_seconds)
        histograms[policy] = bandwidth_histogram(result, peak, episode_seconds)
    return Fig17Result(
        episode_seconds=episode_seconds,
        matrices=matrices,
        variance=variance,
        histograms=histograms,
    )


def format_fig17(result: Fig17Result) -> str:
    lines = []
    for policy, matrix in result.matrices.items():
        lines.append(
            f"{policy}: {matrix.shape[0]} nodes x {matrix.shape[1]} episodes, "
            f"mean {matrix.mean():.1f} GB/s, variance (sigma/peak) "
            f"{result.variance[policy]:.2f}"
        )
        # Coarse ASCII heat map: one char per episode, '.' idle to '#' hot.
        ramp = " .:-=+*#%@"
        peak = max(matrix.max(), 1e-9)
        for node_id, row in enumerate(matrix):
            chars = "".join(
                ramp[min(len(ramp) - 1, int(v / peak * (len(ramp) - 1)))]
                for v in row
            )
            lines.append(f"  n{node_id}: {chars}")
    return "\n".join(lines)
