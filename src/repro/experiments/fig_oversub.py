"""Fabric oversubscription sweep (DESIGN.md §13).

The paper's testbed is a flat full-bisection network; real clusters run
leaf-spine fabrics whose ToR uplinks are *oversubscribed* — a rack of 32
nodes often shares uplink capacity worth 8 or 16.  This experiment
replays one seeded job sequence under CE, CS, plain SNS, and
locality-aware SNS (``SchedulerConfig(locality_aware=True)``) while the
fabric's oversubscription ratio sweeps 1:1 → 8:1, and reports makespan,
mean turnaround, and the fabric's physical link instrumentation.

At 1:1 the fabric is inert and every variant reproduces its flat-network
numbers bit-for-bit (the flat-degenerate contract, enforced by
tools/bench_report.py).  As the ratio grows, spread placements that
cross racks see their communication phases stretched by the most loaded
link on their route — and locality-aware SNS, which fills within a rack
before crossing the spine, pulls away from plain SNS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import SchedulerConfig, SimConfig
from repro.errors import ReproError
from repro.experiments.common import ascii_table, run_policy
from repro.experiments.parallel import run_grid
from repro.hardware.fabric import FabricSpec
from repro.hardware.topology import ClusterSpec
from repro.workloads.sequences import random_sequence

#: Swept ToR uplink oversubscription ratios (1:1 is the flat baseline).
OVERSUB_RATIOS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)

#: Compared scheduler variants: ``SNS+loc`` is SNS with
#: ``locality_aware=True``; both SNS variants book the network
#: (``manage_network=True``) so the fabric headroom masks engage.
VARIANTS: Tuple[str, ...] = ("CE", "CS", "SNS", "SNS+loc")

#: Default simulated cluster: 64 nodes in racks of 4.  Small racks make
#: cross-rack placements the common case and concentrate each rack's
#: cross traffic on one uplink, so oversubscription bites at realistic
#: ratios instead of needing a cluster too large for a smoke run.
NUM_NODES = 64
RACK_SIZE = 4

#: Communication-biased program mix for the synthetic sequence; the
#: network-silent programs (BW/GAN/HC/RNN) would dilute link load and
#: push the congestion knee beyond the swept ratios.
PROGRAMS: Tuple[str, ...] = ("BFS", "CG", "NW", "TS", "WC", "LU")

#: Default sequence seed / length (shared with the bench-report gate so
#: its flat-degenerate replay reproduces the same workload).
SEED = 42
N_JOBS = 80


@dataclass(frozen=True)
class OversubPoint:
    """One (oversubscription ratio, scheduler variant) grid point."""

    oversub: float
    variant: str
    makespan: float
    mean_turnaround: float
    #: Fabric instrumentation (0 at 1:1 where the fabric is inert).
    link_refreshes: int
    route_evals: int


@dataclass(frozen=True)
class FigOversubResult:
    points: List[OversubPoint]

    def get(self, oversub: float, variant: str) -> OversubPoint:
        for p in self.points:
            if p.variant == variant and abs(p.oversub - oversub) < 1e-9:
                return p
        raise KeyError((oversub, variant))


def _variant_config(variant: str) -> Tuple[str, SchedulerConfig]:
    """Map a variant label to its (policy name, scheduler config)."""
    if variant == "CE":
        return "CE", SchedulerConfig()
    if variant == "CS":
        return "CS", SchedulerConfig()
    if variant == "SNS":
        return "SNS", SchedulerConfig(manage_network=True)
    if variant == "SNS+loc":
        return "SNS", SchedulerConfig(manage_network=True,
                                      locality_aware=True)
    raise ReproError(f"unknown fig_oversub variant {variant!r}; "
                     f"known: {', '.join(VARIANTS)}")


def _run_point(task: tuple) -> OversubPoint:
    """One grid point; top-level so it pickles into worker processes
    (the job sequence is re-synthesized from the seed, which is cheap
    next to the replay and keeps the task payload tiny)."""
    num_nodes, rack_size, oversub, variant, seed, n_jobs = task
    policy, sched_config = _variant_config(variant)
    cluster = ClusterSpec(
        num_nodes=num_nodes,
        fabric=FabricSpec(rack_size=rack_size, oversubscription=oversub),
    )
    result = run_policy(
        policy, cluster,
        random_sequence(seed=seed, n_jobs=n_jobs, program_names=PROGRAMS),
        scheduler_config=sched_config,
        sim_config=SimConfig(),
    )
    return OversubPoint(
        oversub=oversub,
        variant=variant,
        makespan=result.makespan,
        mean_turnaround=result.mean_turnaround(),
        link_refreshes=result.counters.get("fabric_link_refreshes", 0),
        route_evals=result.counters.get("fabric_route_evals", 0),
    )


def run_fig_oversub(
    oversub_ratios: Sequence[float] = OVERSUB_RATIOS,
    variants: Sequence[str] = VARIANTS,
    num_nodes: int = NUM_NODES,
    rack_size: int = RACK_SIZE,
    seed: int = SEED,
    n_jobs: int = N_JOBS,
    jobs: Optional[int] = None,
) -> FigOversubResult:
    """Sweep the fabric oversubscription grid; ``jobs`` workers run
    points in parallel (``None``/1 serial, ``<= 0`` one per CPU) with
    point order — and results — identical to the serial run."""
    tasks = [
        (num_nodes, rack_size, oversub, variant, seed, n_jobs)
        for oversub in oversub_ratios
        for variant in variants
    ]
    return FigOversubResult(points=run_grid(_run_point, tasks, jobs=jobs))


def format_fig_oversub(result: FigOversubResult) -> str:
    """One row per grid point; turnaround is also normalized to the CE
    run at the same ratio so the variant spread reads off directly."""
    ce_turnaround = {
        p.oversub: p.mean_turnaround
        for p in result.points if p.variant == "CE"
    }
    rows = []
    for p in result.points:
        ce = ce_turnaround.get(p.oversub)
        rows.append([
            f"{p.oversub:g}:1",
            p.variant,
            f"{p.makespan:.1f}",
            f"{p.mean_turnaround:.1f}",
            f"{p.mean_turnaround / ce:.3f}" if ce else "-",
            str(p.link_refreshes),
            str(p.route_evals),
        ])
    return ascii_table(
        ["oversub", "variant", "makespan", "turnaround", "vs CE",
         "link refr", "route evals"],
        rows,
    )
