#!/usr/bin/env python3
"""Wall-clock benchmark of the Fig 20 smoke grid.

Times the fixed smoke-trace grid — 2 scaling ratios x 2 cluster sizes x
{CE, SNS} on ``smoke_trace_config()`` — and writes/merges the numbers
into ``BENCH_sim.json`` at the repo root, so perf regressions in the
event loop show up as numbers, not vibes:

    PYTHONPATH=src python tools/bench_report.py [--label after]
    PYTHONPATH=src python tools/bench_report.py --no-caches --label ref
    PYTHONPATH=src python tools/bench_report.py --jobs 2
    PYTHONPATH=src python tools/bench_report.py --trace-gate

``--trace-gate`` runs the grid twice — untraced, then with a
full-level tracer — and enforces the DESIGN.md §10 observability
contract: bit-identical results, invariant replay on every traced
config, and at most 10 % wall-clock overhead (see
:func:`run_trace_gate`).

Each entry records per-configuration wall seconds, simulated events,
events/second, and the kernel counters (batched arbitration solves,
view-cache hits, nodes scanned — see DESIGN.md §7),
plus the grid total.  Existing entries under other labels are
preserved, so a before/after pair can live side by side.

``--jobs N`` runs the grid on N worker processes of the grid runner
(:func:`repro.experiments.parallel.run_grid`): every simulation owns a
private :class:`~repro.perfmodel.context.PerfContext`, so pooled runs
must be bit-identical to serial ones — the divergence gate below
enforces exactly that against any serial entry already in
BENCH_sim.json.

Every fast path in the simulator is required to be *bit-identical* to
the reference kernels, so after timing, this script cross-checks the
makespan and mean turnaround of every configuration against every
other entry already in BENCH_sim.json and **exits non-zero (2) on any
divergence** — a perf "win" that changes results is a bug, and CI
treats it as one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import SimConfig, TraceConfig         # noqa: E402
from repro.experiments.common import run_all_policies   # noqa: E402
from repro.experiments.fig20_large_cluster import (     # noqa: E402
    smoke_trace_config,
)
# Renamed import: this script's own run_grid() is the benchmark driver.
from repro.experiments.parallel import (                # noqa: E402
    resolve_jobs,
    run_grid as run_grid_tasks,
)
from repro.hardware.topology import ClusterSpec         # noqa: E402
from repro.obs import verify_trace, write_chrome_trace  # noqa: E402
from repro.workloads.trace import (                     # noqa: E402
    SyntheticTraceConfig,
    synthesize_trace,
)

#: The benchmark grid (fixed: changing it would break comparability).
RATIOS = (0.9, 0.5)
SIZES = (4096, 8192)
POLICIES = ("CE", "SNS")
SEED = 42

#: The full-scale grid (``--full``): the paper's headline Fig 20
#: configuration — the complete 7,044-job Trinity-like trace on the
#: 32,768-node cluster at scaling ratio 0.9 — under both policies.
FULL_RATIOS = (0.9,)
FULL_SIZES = (32768,)

#: Kernel counters copied into each config entry (DESIGN.md §7).
COUNTER_COLUMNS = (
    "refresh_cycles",
    "mix_transitions",
    "arb_nodes_solved",
    "view_cache_hits",
    "nodes_scanned",
    "find_fail_hits",
    "demand_cache_hits",
    "vec_curve_evals",
    "vec_finish_updates",
    "fabric_link_refreshes",
    "fabric_route_evals",
)


def _run_one(task: tuple) -> dict:
    """One grid point: an independent simulation with a private
    PerfContext (``SimConfig.perf_caches`` picks the cache mode), so
    it runs the same in any worker process.

    With ``trace=True`` the run carries a full-level tracer (the
    maximum-observability configuration: every record kind plus the
    time-series collector); the resulting trace is replayed through the
    invariant checker after the timed region, and optionally exported
    as a Chrome trace (``chrome_out``)."""
    ratio, nodes, policy, jobs, caches, trace, chrome_out = task
    cluster = ClusterSpec(num_nodes=nodes)
    trace_config = TraceConfig(level="full") if trace else None
    start = time.perf_counter()
    runs = run_all_policies(
        cluster, jobs, policy_names=(policy,),
        sim_config=SimConfig(max_sim_time=1e12, perf_caches=caches,
                             trace=trace_config),
    )
    wall = time.perf_counter() - start
    result = runs[policy]
    entry = {
        "policy": policy,
        "nodes": nodes,
        "ratio": ratio,
        "wall_s": round(wall, 4),
        "events": result.events,
        "events_per_s": round(result.events / wall, 1),
        "makespan": result.makespan,
        "mean_turnaround": result.mean_turnaround(),
        "counters": {
            key: result.counters.get(key, 0)
            for key in COUNTER_COLUMNS
        },
    }
    if trace:
        tracer = result.trace
        assert tracer is not None
        # Invariant replay (outside the timed region): every smoke-grid
        # experiment's trace must satisfy the conservation laws.
        verify_trace(tracer.events,
                     label=f"{policy}/{nodes}/{ratio}")
        entry["trace_records"] = len(tracer.events)
        if chrome_out:
            write_chrome_trace(tracer.events, chrome_out,
                               tracer.timeseries)
    return entry


def run_grid(caches: bool = True, jobs: int = 1, verbose: bool = True,
             trace: bool = False, chrome_out: Optional[str] = None,
             full: bool = False) -> dict:
    """Run the smoke grid once; returns the BENCH_sim entry payload.

    ``jobs > 1`` runs the grid points on a pool of that many worker
    processes; the per-config results are bit-identical to a serial run
    by the state-ownership contract (DESIGN.md §9).  ``trace=True`` runs
    every grid point with a full-level tracer and replays each trace
    through the invariant checker; ``chrome_out`` additionally exports
    the first SNS config's Chrome trace.  ``full=True`` swaps in the full-scale
    Fig 20 grid (complete Trinity-like trace, 32K nodes)."""
    if full:
        trace_config = SyntheticTraceConfig()
        ratios, sizes = FULL_RATIOS, FULL_SIZES
        grid_name = "fig20-full 32k"
    else:
        trace_config = smoke_trace_config()
        ratios, sizes = RATIOS, SIZES
        grid_name = "fig20-smoke 2x2x2"
    tasks: List[list] = []
    for ratio in ratios:
        trace_jobs = synthesize_trace(seed=SEED, scaling_ratio=ratio,
                                      config=trace_config)
        for nodes in sizes:
            for policy in POLICIES:
                tasks.append([ratio, nodes, policy, trace_jobs, caches,
                              trace, None])
    if chrome_out is not None:
        for task in tasks:
            if task[2] == "SNS":
                task[6] = chrome_out
                break
    tasks = [tuple(t) for t in tasks]
    start = time.perf_counter()
    configs = run_grid_tasks(_run_one, tasks, jobs=jobs)
    elapsed = time.perf_counter() - start
    total_events = sum(c["events"] for c in configs)
    if verbose:
        for c in configs:
            print(f"  {c['policy']:3s} {c['nodes']:5d} nodes "
                  f"ratio {c['ratio']}: "
                  f"{c['wall_s']:6.2f}s  {c['events']} events  "
                  f"{c['events_per_s']:7.0f} ev/s")
    # Serial entries report summed per-config wall time (comparable to
    # older entries); pooled entries report overall elapsed, since
    # per-config clocks overlap.
    total_wall = elapsed if jobs > 1 else sum(c["wall_s"] for c in configs)
    return {
        "grid": grid_name,
        "caches": caches,
        "jobs": jobs,
        "trace": trace,
        "total_wall_s": round(total_wall, 4),
        "total_events": total_events,
        "events_per_s": round(total_events / total_wall, 1),
        "configs": configs,
    }


def check_divergence(report: dict, label: str) -> List[str]:
    """Cross-check results of every same-grid entry pair in ``report``.

    All entries replay the same traces with the same seed, so their
    per-configuration makespans and mean turnarounds must agree exactly
    — fast paths are contractually bit-identical to the reference, and
    pooled runs to serial ones.  Returns a list of
    human-readable divergence descriptions (empty when everything
    matches).
    """
    grids: Dict[str, Dict[tuple, tuple]] = {}
    problems: List[str] = []
    for name, entry in report.items():
        seen = grids.setdefault(entry.get("grid", "?"), {})
        for config in entry.get("configs", []):
            key = (config["policy"], config["nodes"], config["ratio"])
            results = (config["makespan"], config["mean_turnaround"])
            known = seen.get(key)
            if known is None:
                seen[key] = (name, results)
            elif known[1] != results:
                problems.append(
                    f"{key}: '{name}' {results} != '{known[0]}' {known[1]}"
                )
    return problems


#: Full tracing may cost at most this factor in grid wall-clock
#: (DESIGN.md §10 overhead budget; the trace gate exits 3 beyond it).
TRACE_OVERHEAD_LIMIT = 1.10

#: Wall-clock regression threshold: a ``current`` run slower than this
#: factor times the committed ``current`` entry draws a CI warning (the
#: machine-noise band is well under 15 %; bit-identity stays the hard
#: gate).
WALL_REGRESSION_LIMIT = 1.15

def run_trace_gate(args: argparse.Namespace) -> int:
    """The tracer-overhead gate (``--trace-gate``).

    Runs the smoke grid twice — untraced, then with full-level tracing —
    and enforces the DESIGN.md §10 observability contract:

    * traced results are **bit-identical** to untraced ones (and to any
      committed BENCH_sim.json entry) — exit 2 on divergence;
    * every traced config's record stream passes the invariant replay
      (:func:`repro.obs.verify_trace` raises inside the worker);
    * the traced grid costs at most ``TRACE_OVERHEAD_LIMIT`` x the
      untraced wall-clock — exit 3 beyond the budget.

    Results are compared in memory only; nothing is written to
    BENCH_sim.json (the gate is not a benchmark baseline).
    """
    print("trace gate: smoke grid untraced vs --trace-level full ...")
    # Two repetitions per pass, best total kept: the walls being
    # compared differ by less than run-to-run machine noise, so a
    # single-shot ratio would make the gate flaky.
    plain = traced = None
    for rep in range(2):
        print(f"untraced pass {rep + 1}:")
        entry = run_grid(caches=True, verbose=rep == 0)
        print(f"  total {entry['total_wall_s']:.2f}s")
        if plain is None or entry["total_wall_s"] < plain["total_wall_s"]:
            plain = entry
        print(f"traced pass {rep + 1} (full level):")
        entry = run_grid(caches=True, verbose=rep == 0, trace=True,
                         chrome_out=args.chrome_out)
        print(f"  total {entry['total_wall_s']:.2f}s")
        if traced is None \
                or entry["total_wall_s"] < traced["total_wall_s"]:
            traced = entry

    report = {"untraced": plain, "traced-full": traced}
    path = Path(args.output)
    if path.exists():
        for name, entry in json.loads(path.read_text()).items():
            report.setdefault(f"bench:{name}", entry)
    problems = check_divergence(report, "traced-full")
    if problems:
        print(f"FATAL: tracing changed results "
              f"({len(problems)} mismatches):", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 2

    records = sum(c.get("trace_records", 0) for c in traced["configs"])
    print(f"invariant replay: OK on {len(traced['configs'])} configs "
          f"({records} trace records)")
    if args.chrome_out:
        print(f"wrote Chrome trace artifact to {args.chrome_out}")
    overhead = traced["total_wall_s"] / plain["total_wall_s"]
    print(f"tracer overhead: {overhead:.3f}x "
          f"(budget {TRACE_OVERHEAD_LIMIT:.2f}x)")
    if overhead > TRACE_OVERHEAD_LIMIT:
        print("FATAL: full tracing exceeds the wall-clock overhead "
              "budget", file=sys.stderr)
        return 3
    print("trace gate passed")
    return 0


def run_oversub_gate(args: argparse.Namespace) -> int:
    """``--oversub-gate``: the leaf-spine fabric smoke entry.

    Runs the fig_oversub sweep (CE/CS/SNS/locality-aware SNS while ToR
    oversubscription sweeps 1:1 → 8:1 on the default 64-node, rack-of-4
    cluster) and enforces two contracts:

    * **flat-degenerate bit-identity** — every 1:1 point must reproduce
      the same variant replayed on a fabric-less ``ClusterSpec``
      exactly, and the whole grid must match any committed
      ``fig-oversub`` entry in BENCH_sim.json (exit 2 on divergence);
    * **locality divergence** — at the top swept ratio, locality-aware
      SNS must evaluate strictly fewer fabric routes than plain SNS (it
      fills racks before crossing the spine), so the knob failing to
      change placements turns the gate red rather than passing quietly.

    The grid is merged into BENCH_sim.json under ``fig-oversub`` with
    the fabric link counters alongside the headline numbers.
    """
    from repro.experiments.fig_oversub import (
        N_JOBS, NUM_NODES as OV_NODES, PROGRAMS, SEED as OV_SEED,
        VARIANTS, _variant_config, format_fig_oversub, run_fig_oversub,
    )
    from repro.workloads.sequences import random_sequence

    print("oversub gate: fig_oversub sweep "
          f"({OV_NODES} nodes, {N_JOBS} jobs) ...")
    start = time.perf_counter()
    result = run_fig_oversub()
    elapsed = time.perf_counter() - start
    print(format_fig_oversub(result))
    print(f"total: {elapsed:.2f}s")

    # Flat-degenerate contract: a 1:1 fabric must be indistinguishable
    # from no fabric at all, bit for bit.
    sequence = random_sequence(seed=OV_SEED, n_jobs=N_JOBS,
                               program_names=PROGRAMS)
    problems = []
    ratios = sorted({p.oversub for p in result.points})
    for variant in VARIANTS:
        policy, sched_config = _variant_config(variant)
        flat = run_all_policies(
            ClusterSpec(num_nodes=OV_NODES), sequence,
            policy_names=(policy,), scheduler_config=sched_config,
        )[policy]
        point = result.get(ratios[0], variant)
        if (point.makespan, point.mean_turnaround) != \
                (flat.makespan, flat.mean_turnaround()):
            problems.append(
                f"{variant} at {ratios[0]:g}:1: "
                f"({point.makespan}, {point.mean_turnaround}) != flat "
                f"({flat.makespan}, {flat.mean_turnaround()})"
            )
    if problems:
        print(f"FATAL: 1:1 fabric diverges from the flat network "
              f"({len(problems)} mismatches):", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 2

    top = ratios[-1]
    sns = result.get(top, "SNS")
    loc = result.get(top, "SNS+loc")
    print(f"locality divergence at {top:g}:1: SNS {sns.route_evals} "
          f"route evals vs SNS+loc {loc.route_evals}")
    if not loc.route_evals < sns.route_evals:
        print("FATAL: locality-aware SNS does not reduce fabric route "
              "evaluations — the locality knob changed nothing",
              file=sys.stderr)
        return 2

    entry = {
        "grid": f"fig-oversub {OV_NODES}n",
        "total_wall_s": round(elapsed, 4),
        "configs": [
            {
                "policy": p.variant,
                "nodes": OV_NODES,
                "ratio": p.oversub,
                "makespan": p.makespan,
                "mean_turnaround": p.mean_turnaround,
                "counters": {
                    "fabric_link_refreshes": p.link_refreshes,
                    "fabric_route_evals": p.route_evals,
                },
            }
            for p in result.points
        ],
    }
    path = Path(args.output)
    report = json.loads(path.read_text()) if path.exists() else {}
    report[args.label or "fig-oversub"] = entry
    problems = check_divergence(report, args.label or "fig-oversub")
    if problems:
        print(f"FATAL: results diverge between entries "
              f"({len(problems)} mismatches):", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        print("not writing BENCH_sim.json — fix the divergence first",
              file=sys.stderr)
        return 2
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    print("oversub gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default=None,
                        help="entry name in BENCH_sim.json "
                             "(default: current, or jobsN)")
    parser.add_argument("--no-caches", action="store_true",
                        help="benchmark the unmemoized reference path")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run the grid on N worker processes (0 = "
                             "one per CPU) and gate bit-identity against "
                             "serial entries")
    parser.add_argument("--full", action="store_true",
                        help="run the full-scale Fig 20 grid instead of "
                             "the smoke grid: the complete 7,044-job "
                             "Trinity-like trace on 32,768 nodes")
    parser.add_argument("--trace-gate", action="store_true",
                        help="gate the observability layer: run the grid "
                             "untraced and fully traced, require "
                             "bit-identical results, passing invariant "
                             "replay, and <= 10%% wall-clock overhead")
    parser.add_argument("--chrome-out", default=None, metavar="PATH",
                        help="with --trace-gate: export one traced "
                             "config's Chrome trace_event file (CI "
                             "artifact)")
    parser.add_argument("--oversub-gate", action="store_true",
                        help="run the fig_oversub fabric sweep, gate the "
                             "flat-degenerate bit-identity contract and "
                             "the locality divergence, and merge the "
                             "entry into BENCH_sim.json (exit 2 on any "
                             "divergence)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_sim.json"))
    args = parser.parse_args(argv)

    if args.trace_gate:
        return run_trace_gate(args)
    if args.oversub_gate:
        return run_oversub_gate(args)

    caches = not args.no_caches
    jobs = resolve_jobs(args.jobs)
    label: Optional[str] = args.label
    if label is None:
        label = f"jobs{jobs}" if jobs > 1 else "current"
        if args.full:
            label = "fig20-full" if label == "current" \
                else f"fig20-full-{label}"
    mode = f"{jobs} processes" if jobs > 1 else "serial"
    scale = "full" if args.full else "smoke"
    print(f"benchmarking fig20 {scale} grid "
          f"(caches {'on' if caches else 'off'}, {mode}) ...")
    entry = run_grid(caches=caches, jobs=jobs, full=args.full)
    print(f"total: {entry['total_wall_s']:.2f}s, "
          f"{entry['events_per_s']:.0f} events/s")

    path = Path(args.output)
    report = {}
    if path.exists():
        report = json.loads(path.read_text())
    # Wall-clock regression warning (CI surfaces it): compare against
    # the committed entry under the same label before overwriting it.
    # Soft perf gate: every run (CI labels included) is compared against
    # the committed canonical ``current`` entry for the same grid; bit
    # identity below stays the hard gate.
    prior = report.get("current") or report.get(label)
    if prior is not None and prior.get("grid") == entry["grid"]:
        ratio = entry["total_wall_s"] / prior["total_wall_s"]
        if ratio > WALL_REGRESSION_LIMIT:
            print(f"WARNING: wall-clock regression — "
                  f"{entry['total_wall_s']:.2f}s is {ratio:.2f}x the "
                  f"committed baseline "
                  f"({prior['total_wall_s']:.2f}s, limit "
                  f"{WALL_REGRESSION_LIMIT:.2f}x)")
    report[label] = entry
    baselines = [
        (name, e["total_wall_s"]) for name, e in report.items()
        if name != label and e.get("grid") == entry["grid"]
    ]
    for name, wall in baselines:
        print(f"vs {name}: {wall / entry['total_wall_s']:.2f}x")
    problems = check_divergence(report, label)
    if problems:
        print(f"FATAL: results diverge between entries "
              f"({len(problems)} mismatches):", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        print("not writing BENCH_sim.json — fix the divergence first",
              file=sys.stderr)
        return 2
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
