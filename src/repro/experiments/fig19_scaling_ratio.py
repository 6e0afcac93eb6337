"""Fig 19 — impact of the workload scaling ratio (paper Section 6.3).

Eleven controlled mixes of BW (scaling) and HC (neutral) jobs, 30
full-node 28-core jobs each, sweep the scaling ratio from 0 to 1.
Because every job occupies a whole node, CS degenerates to CE and is
omitted.  The paper finds SNS's run time dropping monotonically with the
ratio, wait time improving until ~0.75 and then degrading (small-cluster
fragmentation), and turnaround better than CE by >10 % between ratios of
roughly 0.35 and 0.85.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import SimConfig
from repro.experiments.common import ascii_table, default_cluster, run_all_policies
from repro.hardware.topology import ClusterSpec
from repro.metrics.times import breakdown
from repro.workloads.mixes import mix_ladder


@dataclass(frozen=True)
class RatioPoint:
    target_ratio: float
    achieved_ratio: float
    # normalized to CE: submit-to-start, start-to-finish, submit-to-finish
    wait: float
    run: float
    turnaround: float


@dataclass(frozen=True)
class Fig19Result:
    points: List[RatioPoint]


def run_fig19(
    n_points: int = 11,
    n_jobs: int = 30,
    cluster: Optional[ClusterSpec] = None,
) -> Fig19Result:
    cluster = cluster or default_cluster()
    points: List[RatioPoint] = []
    for target, jobs, achieved in mix_ladder(
        n_points=n_points, n_jobs=n_jobs, spec=cluster.node
    ):
        runs = run_all_policies(
            cluster, jobs, policy_names=("CE", "SNS"),
            sim_config=SimConfig(),
        )
        ce = breakdown(runs["CE"])
        sns = breakdown(runs["SNS"])
        points.append(
            RatioPoint(
                target_ratio=target,
                achieved_ratio=achieved,
                # Wait can be zero in uncongested corners; guard ratios.
                wait=sns.wait / ce.wait if ce.wait > 0 else 1.0,
                run=sns.run / ce.run,
                turnaround=sns.turnaround / ce.turnaround,
            )
        )
    return Fig19Result(points=points)


def format_fig19(result: Fig19Result) -> str:
    rows = [
        [
            f"{p.achieved_ratio:.2f}",
            f"{p.wait:.3f}",
            f"{p.run:.3f}",
            f"{p.turnaround:.3f}",
        ]
        for p in result.points
    ]
    return ascii_table(
        ["scaling ratio", "wait/CE", "run/CE", "turnaround/CE"], rows
    )
