"""Fig 20 — trace-driven simulation of larger clusters
(paper Section 6.4).

A Trinity-like trace (7,044 parallel jobs, ~1,900 hours; synthetic — see
DESIGN.md) is replayed under CE and SNS on clusters of 4,096 / 8,192 /
16,384 / 32,768 testbed-style nodes, with program-mapping scaling
ratios 0.9 and 0.5.  Reported per configuration: average wait and run
time, both normalized to the CE turnaround of that configuration.  The
paper's findings: the 4K cluster is stampeded (wait-dominated); larger
clusters favour SNS more at ratio 0.9 (15.7 % throughput gain at 32K);
at ratio 0.5 the biggest SNS win is the wait-time reduction on the
congested 4K cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.experiments.common import ascii_table, run_all_policies
from repro.experiments.parallel import run_grid
from repro.hardware.topology import ClusterSpec
from repro.metrics.times import breakdown
from repro.workloads.trace import SyntheticTraceConfig, synthesize_trace

#: The paper's simulated cluster sizes.
CLUSTER_SIZES: Tuple[int, ...] = (4096, 8192, 16384, 32768)

#: The paper's two program-mapping biases.
SCALING_RATIOS: Tuple[float, ...] = (0.9, 0.5)


@dataclass(frozen=True)
class TracePoint:
    """One (cluster size, scaling ratio) configuration."""

    nodes: int
    scaling_ratio: float
    # seconds, normalized to this configuration's CE turnaround
    ce_wait: float
    ce_run: float
    sns_wait: float
    sns_run: float

    @property
    def sns_turnaround_gain(self) -> float:
        """Relative turnaround improvement of SNS over CE."""
        return 1.0 - (self.sns_wait + self.sns_run)


@dataclass(frozen=True)
class Fig20Result:
    points: List[TracePoint]

    def get(self, nodes: int, ratio: float) -> TracePoint:
        for p in self.points:
            if p.nodes == nodes and abs(p.scaling_ratio - ratio) < 1e-9:
                return p
        raise KeyError((nodes, ratio))


def _run_point(task: tuple) -> TracePoint:
    """One (cluster size, scaling ratio) grid point.

    Top-level so it pickles into worker processes; the trace is
    re-synthesized from the seed, which is cheap next to the replay and
    keeps the task payload tiny.
    """
    nodes, ratio, trace_config, seed = task
    jobs = synthesize_trace(seed=seed, scaling_ratio=ratio,
                            config=trace_config)
    cluster = ClusterSpec(num_nodes=nodes)
    runs = run_all_policies(
        cluster, jobs, policy_names=("CE", "SNS"),
        sim_config=SimConfig(max_sim_time=1e12),
    )
    ce = breakdown(runs["CE"])
    sns = breakdown(runs["SNS"])
    return TracePoint(
        nodes=nodes,
        scaling_ratio=ratio,
        ce_wait=ce.wait / ce.turnaround,
        ce_run=ce.run / ce.turnaround,
        sns_wait=sns.wait / ce.turnaround,
        sns_run=sns.run / ce.turnaround,
    )


def run_fig20(
    cluster_sizes: Sequence[int] = CLUSTER_SIZES,
    scaling_ratios: Sequence[float] = SCALING_RATIOS,
    trace_config: Optional[SyntheticTraceConfig] = None,
    seed: int = 42,
    jobs: Optional[int] = None,
) -> Fig20Result:
    """Replay the trace grid; ``jobs`` workers run points in parallel
    (``None``/1 serial, ``<= 0`` one per CPU) with point order — and
    results — identical to the serial run."""
    trace_config = trace_config or SyntheticTraceConfig()
    tasks = [
        (nodes, ratio, trace_config, seed)
        for ratio in scaling_ratios
        for nodes in cluster_sizes
    ]
    return Fig20Result(points=run_grid(_run_point, tasks, jobs=jobs))


def smoke_trace_config(n_jobs: int = 800,
                       duration_hours: float = 220.0) -> SyntheticTraceConfig:
    """A reduced trace with the same per-node load intensity as the full
    one, for tests and quick benchmark runs."""
    full = SyntheticTraceConfig()
    return SyntheticTraceConfig(
        n_jobs=n_jobs,
        duration_hours=duration_hours,
        max_width_nodes=full.max_width_nodes,
        width_alpha=full.width_alpha,
        runtime_median_s=full.runtime_median_s,
        runtime_sigma=full.runtime_sigma,
        burstiness=full.burstiness,
    )


def format_fig20(result: Fig20Result) -> str:
    rows = [
        [
            f"{p.nodes // 1024}K-{p.scaling_ratio}",
            f"{p.ce_wait:.3f}",
            f"{p.ce_run:.3f}",
            f"{p.sns_wait:.3f}",
            f"{p.sns_run:.3f}",
            f"{p.sns_turnaround_gain:+.1%}",
        ]
        for p in result.points
    ]
    return ascii_table(
        ["config", "CE wait", "CE run", "SNS wait", "SNS run", "SNS gain"],
        rows,
    )
