"""Fig 1 — the motivating example (paper Section 1).

Three resource-intensive programs, 16 cores each: MG (NPB MultiGrid,
repeated five times so all programs finish around the same time), HC
(16 replicas of SPEC H.264 coding), and TS (Spark TeraSort).  Under CE
they occupy three dedicated nodes; SNS packs them onto two shared nodes,
spreading MG, and still finishes barely later while using ~35 % fewer
node-seconds — with MG and TS *faster* than their CE runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import SimConfig
from repro.experiments.common import ascii_table, run_policy
from repro.hardware.topology import ClusterSpec
from repro.sim.job import Job
from repro.apps.catalog import get_program


@dataclass(frozen=True)
class Fig01Result:
    """Makespan, node-seconds, and per-program runtimes per policy."""

    makespan: Dict[str, float]            # policy -> seconds
    node_seconds: Dict[str, float]        # policy -> node-seconds
    program_time: Dict[str, Dict[str, float]]  # policy -> program -> seconds


def _jobs() -> list:
    mg = get_program("MG")
    hc = get_program("HC")
    ts = get_program("TS")
    # The paper repeats MG five times (~97.5 s each) so the three
    # programs finish in close time (~420-490 s); our calibrated MG job
    # already runs ~490 s CE-solo, so one MG job stands in for the five
    # back-to-back repeats.
    # Queue order TS, MG, HC: the neutral HC replicas are placed last,
    # so they fill the residual cores left by the two spread jobs (the
    # paper's Fig 1 layout has all three sharing both nodes).
    return [
        Job(job_id=0, program=ts, procs=16),
        Job(job_id=1, program=mg, procs=16),
        Job(job_id=2, program=hc, procs=16),
    ]


def run_fig01() -> Fig01Result:
    makespan: Dict[str, float] = {}
    node_seconds: Dict[str, float] = {}
    program_time: Dict[str, Dict[str, float]] = {}
    for policy, nodes in (("CE", 3), ("SNS", 2)):
        cluster = ClusterSpec(num_nodes=nodes)
        result = run_policy(policy, cluster, _jobs(),
                            sim_config=SimConfig())
        makespan[policy] = result.makespan
        # Resource usage as the paper accounts it: the whole allocation
        # (3 nodes for CE, 2 for SNS) held until the last job finishes.
        node_seconds[policy] = nodes * result.makespan
        program_time[policy] = {
            j.program.name: j.turnaround_time for j in result.finished_jobs
        }
    return Fig01Result(makespan, node_seconds, program_time)


def format_fig01(result: Fig01Result) -> str:
    rows = []
    for policy in ("CE", "SNS"):
        for prog, t in sorted(result.program_time[policy].items()):
            rows.append([policy, prog, f"{t:.1f}"])
        rows.append([policy, "(makespan)", f"{result.makespan[policy]:.1f}"])
        rows.append([policy, "(node-seconds)",
                     f"{result.node_seconds[policy]:.0f}"])
    saved = 1.0 - result.node_seconds["SNS"] / result.node_seconds["CE"]
    table = ascii_table(["policy", "program", "seconds"], rows)
    return f"{table}\nnode-seconds saved by SNS: {saved:.1%}"
