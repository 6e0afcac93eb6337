#!/usr/bin/env python3
"""Repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload trinity-sns --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``trinity-sns``        SNS replays Trinity-like traces on 4,096 nodes;
- ``trinity-ce-fabric``  CE replays them on 32,768 nodes behind a 4:1
                         leaf-spine fabric with an MTBF fault plan;
- ``service-sns``        the live SNS master (1,024 nodes) under an
                         open-loop submission stream.

``--trace 0`` measures the end-to-end metrics with nothing wrapped; their
timings are scaled to a reference host speed (see hostspeed.py).
``--trace 1`` is a separate run that records layer spans around calls
into the program and prints the per-layer table; its spans are written
to ``.perfbench/``.  ``--perturb-digest`` corrupts every expected result
so that the output checks must report failures.  ``--write-digests``
regenerates ``digests.json``.

The last line of standard output is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    sys.exit(f"perfbench: repro imported from {repro.__file__}, "
             f"not from {SRC}")

import inputs    # noqa: E402
import replay    # noqa: E402
import service   # noqa: E402
from spans import SpanRecorder  # noqa: E402

WORKLOADS = ("trinity-sns", "trinity-ce-fabric", "service-sns")
OUT_DIR = ROOT / ".perfbench"

Metric = Tuple[float, str]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, res: dict
              ) -> Tuple[Dict[str, Metric], Dict[str, str]]:
    """The per-layer metrics of one traced run, and the base of every
    ratio.  ``_s`` metrics are self time (span time minus child spans)
    unless named ``total``."""
    a = res["analysis"]
    c = res["counters"]
    svc = res["service"]
    on_service = workload == "service-sns"
    bases: Dict[str, str] = {}

    def ratio(name, num, num_label, den, den_label) -> Metric:
        bases[name] = f"{num_label} / {den_label} = {num:.0f} / {den:.0f}"
        return (_ratio(num, den), "ratio")

    def self_s(name):
        return a.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return a.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return float(a.get(name, {}).get("calls", 0))

    def ctr(key):
        return float(c.get(key, 0))

    step = a.get("sim.step", {}).get("durations")
    step_p99 = (float(sorted(step)[max(0, math.ceil(0.99 * len(step)) - 1)])
                * 1e3 if step is not None and len(step) else 0.0)
    m: Dict[str, Metric] = {
        "scheduling.schedule_point.self_s":
            (self_s("scheduling.schedule_point"), "s"),
        "scheduling.schedule_point.total_s":
            (total_s("scheduling.schedule_point"), "s"),
        "scheduling.schedule_point.calls":
            (calls("scheduling.schedule_point"), "count"),
        "scheduling.find_nodes_s": (self_s("scheduling.find_nodes"), "s"),
        "scheduling.find_nodes.calls":
            (calls("scheduling.find_nodes"), "count"),
        "scheduling.demand_s": (self_s("scheduling.demand"), "s"),
        "scheduling.skip_ratio": ratio(
            "scheduling.skip_ratio", ctr("jobs_skipped"), "jobs_skipped",
            ctr("jobs_skipped") + ctr("try_place_calls"),
            "(jobs_skipped + try_place_calls)"),
        "scheduling.find_fail_hit_ratio": ratio(
            "scheduling.find_fail_hit_ratio", ctr("find_fail_hits"),
            "find_fail_hits", calls("scheduling.find_nodes"),
            "find_nodes calls"),
        "scheduling.demand_cache_hit_ratio": ratio(
            "scheduling.demand_cache_hit_ratio", ctr("demand_cache_hits"),
            "demand_cache_hits",
            ctr("demand_cache_hits") + calls("scheduling.demand"),
            "(demand_cache_hits + estimate_demands_batch calls)"),
        "sim.cluster.place_slices_s":
            (self_s("sim.cluster.place_slices"), "s"),
        "sim.cluster.remove_slices_s":
            (self_s("sim.cluster.remove_slices"), "s"),
        "sim.cluster.scan_hosts_s": (self_s("sim.cluster.scan_hosts"), "s"),
        "sim.cluster.scan_hosts.calls":
            (calls("sim.cluster.scan_hosts"), "count"),
        "sim.cluster.pick_idlest_s":
            (self_s("sim.cluster.pick_idlest"), "s"),
        "sim.cluster.nodes_scanned": (ctr("nodes_scanned"), "count"),
        "sim.cluster.scan_cache_hit_ratio": ratio(
            "sim.cluster.scan_cache_hit_ratio", ctr("scan_cache_hits"),
            "scan_cache_hits", calls("sim.cluster.scan_hosts"),
            "scan_hosts calls"),
        "sim.cluster.fail_recover_s":
            (self_s("sim.cluster.fail_recover"), "s"),
        "sim.step.calls": (calls("sim.step"), "count"),
        "sim.step.self_s": (self_s("sim.step"), "s"),
        "sim.step.p99_ms": (step_p99, "ms"),
        "sim.engine.self_s": (self_s("sim.engine"), "s"),
        "sim.events_coalesced": (ctr("events_coalesced"), "count"),
        "sim.refresh_cycles": (ctr("refresh_cycles"), "count"),
        "sim.nodes_refreshed": (ctr("nodes_refreshed"), "count"),
        "perfmodel.arbitration_batch_s":
            (self_s("perfmodel.arbitration_batch"), "s"),
        "perfmodel.arbitrate_nodes_s":
            (self_s("perfmodel.arbitrate_nodes"), "s"),
        "perfmodel.arb_nodes_solved": (ctr("arb_nodes_solved"), "count"),
        "perfmodel.view_cache_hit_ratio": ratio(
            "perfmodel.view_cache_hit_ratio", ctr("view_cache_hits"),
            "view_cache_hits",
            ctr("view_cache_hits") + ctr("arb_nodes_solved"),
            "(view_cache_hits + arb_nodes_solved)"),
    }
    for memo in ("rate", "demand", "net", "supply", "node"):
        name = f"perfmodel.memo_{memo}_hit_ratio"
        hits = ctr(f"memo_{memo}_hits")
        m[name] = ratio(name, hits, "hits",
                        hits + ctr(f"memo_{memo}_misses"), "lookups")
    m.update({
        "perfmodel.vec_curve_evals": (ctr("vec_curve_evals"), "count"),
        "perfmodel.vec_finish_updates": (ctr("vec_finish_updates"), "count"),
        "fabric.link_refreshes": (ctr("fabric_link_refreshes"), "count"),
        "fabric.route_evals": (ctr("fabric_route_evals"), "count"),
        "faults.node_failures": (ctr("node_failures"), "count"),
        "faults.job_evictions": (ctr("job_evictions"), "count"),
        "faults.job_retries": (ctr("job_retries"), "count"),
        "profiling.get_or_profile_s":
            (self_s("profiling.get_or_profile"), "s"),
        "profiling.get_or_profile.calls":
            (calls("profiling.get_or_profile"), "count"),
        "obs.tracer_s": (self_s("obs.tracer"), "s"),
        "obs.records": (float(res.get("records", 0)), "count"),
        "service.protocol_s": (self_s("service.protocol"), "s"),
        "service.core_submit_s": (total_s("service.core_submit"), "s"),
        "service.step_s": (total_s("sim.step") if on_service else 0.0, "s"),
    })
    units = {"service.max_rate": "1/s", "service.rejected": "count"}
    for name in ("service.ack_p50_ms", "service.ack_p99_ms",
                 "service.ack_p99_low_ms", "service.place_p50_ms",
                 "service.place_p99_ms", "service.max_rate",
                 "service.rejected",
                 "loadgen.late_max_ms"):
        m[name] = (float(svc.get(name, 0.0)), units.get(name, "ms"))
    m["service.retry_ratio"] = ratio(
        "service.retry_ratio", svc.get("retries", 0), "retries",
        svc.get("submissions", 0), "submissions")
    attributed = sum(v["self_s"] for v in a.values())
    m["bench.wall_s"] = (res["wall_s"], "s")
    m["bench.unattributed_s"] = (res["wall_s"] - attributed, "s")
    m["bench.trace_overhead"] = (res["trace_overhead"], "ratio")
    bases["bench.trace_overhead"] = "traced / untraced replay wall"
    return m, bases


def counts_table(metrics: Dict[str, Metric], bases: Dict[str, str]) -> str:
    """Counts and ratios, each ratio with its base."""
    lines = ["counts and ratios"]
    for name, (value, unit) in metrics.items():
        if unit in ("count", "ratio", "1/s"):
            base = f"   ({bases[name]})" if name in bases else ""
            lines.append(f"  {name:40s} {value:14.4f} {unit}{base}")
    return "\n".join(lines)


def layer_table(res: dict) -> str:
    """Self time by layer and span, with share of the traced wall."""
    wall = res["wall_s"]
    a = res["analysis"]
    layers: Dict[str, float] = {}
    lines = [f"traced wall {wall:.3f} s (spans below sum to wall)",
             f"  {'layer / span':40s} {'self s':>9s} {'share':>7s} "
             f"{'calls':>9s}"]
    for name in sorted(a):
        layer = name.rsplit(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + a[name]["self_s"]
    attributed = 0.0
    for layer in sorted(layers, key=layers.get, reverse=True):
        attributed += layers[layer]
        lines.append(f"  {layer:40s} {layers[layer]:9.3f} "
                     f"{_ratio(layers[layer], wall):7.1%}")
        for name in sorted(a):
            if name.rsplit(".", 1)[0] == layer and a[name]["calls"]:
                lines.append(
                    f"    {name:38s} {a[name]['self_s']:9.3f} "
                    f"{_ratio(a[name]['self_s'], wall):7.1%} "
                    f"{a[name]['calls']:9d}")
    rest = wall - attributed
    lines.append(f"  {'bench.unattributed':40s} {rest:9.3f} "
                 f"{_ratio(rest, wall):7.1%}")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> dict:
    seed, seconds = args.seed, float(args.seconds)
    perturb = args.perturb_digest
    if not args.trace:
        if args.workload == "service-sns":
            return service.run_untraced(seed, seconds, perturb)
        return replay.run_untraced(args.workload, seed, seconds, perturb)
    recorder = SpanRecorder()
    if args.workload == "service-sns":
        res = service.run_traced(seed, seconds, perturb, recorder)
    else:
        res = replay.run_traced(args.workload, seed, seconds, perturb,
                                recorder)
        res["analysis"] = recorder.analyse()
    OUT_DIR.mkdir(exist_ok=True)
    recorder.save(OUT_DIR / f"spans-{args.workload}-{seed}.npz")
    res["metrics"], bases = per_layer(args.workload, res)
    res["notes"] += [layer_table(res), counts_table(res["metrics"], bases)]
    return res


def write_digests() -> None:
    seeds = list(range(inputs.DIGEST_SEEDS)) + [inputs.HELD_OUT_SEED]
    table = {w: replay.record_digests(w, seeds) for w in replay.SPECS}
    with open(inputs.DIGEST_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-digest", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    res = run(args)
    for note in res["notes"]:
        print(note)
    failed = int(res["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(res["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
