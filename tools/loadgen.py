#!/usr/bin/env python3
"""Load generator for the live scheduler service (DESIGN.md §12).

Replays Trinity-like synthetic arrivals against a running
``repro-sns serve`` master (or one started in-process with ``--serve``)
and reports sustained submission throughput plus submit→place latency
percentiles — the service's two headline numbers:

    PYTHONPATH=src python tools/loadgen.py --serve --jobs 100
    PYTHONPATH=src python tools/loadgen.py --host 127.0.0.1 --port 7044
    PYTHONPATH=src python tools/loadgen.py --serve --speedup 1000

``--speedup N`` paces submissions at N× real time (virtual arrival
gaps shrink by N on the wall clock); the default ``--speedup 0`` is
firehose mode — submit as fast as the service admits, which is how the
CI smoke job measures peak sustainable rate (``--min-rate`` turns the
measured rate into a gate, exit 4 when unmet).

Submit→place latency is measured **at the master** (wall-clock stamp at
admission, closed by the placement's audit-log record), so the numbers
exclude client-side think time; this tool just fetches and summarizes
them.  Backpressure rejections (``retryable: true``) are retried after
a short backoff and counted in the report.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

from repro.service import ServiceClient
from repro.workloads.trace import SyntheticTraceConfig, synthesize_trace


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def parse_fabric(spec: Optional[str]):
    """Parse ``--fabric RACK_SIZE:OVERSUB`` (e.g. ``8:4``) into a
    :class:`~repro.hardware.fabric.FabricSpec`; ``None`` stays flat."""
    if spec is None:
        return None
    from repro.hardware.fabric import FabricSpec

    parts = spec.split(":")
    if len(parts) != 2:
        raise SystemExit(
            f"loadgen: bad --fabric {spec!r} (expected RACK_SIZE:OVERSUB, "
            f"e.g. 8:4)"
        )
    try:
        rack_size, oversub = int(parts[0]), float(parts[1])
    except ValueError:
        raise SystemExit(
            f"loadgen: bad --fabric {spec!r} (expected RACK_SIZE:OVERSUB, "
            f"e.g. 8:4)"
        ) from None
    return FabricSpec(rack_size=rack_size, oversubscription=oversub)


def smoke_workload(seed: int, n_jobs: int, max_width: int):
    """A small Trinity-shaped arrival stream: power-law widths capped
    at ``max_width`` nodes, log-normal runtimes, bursty arrivals over
    one virtual hour."""
    config = SyntheticTraceConfig(
        n_jobs=n_jobs,
        duration_hours=1.0,
        max_width_nodes=max_width,
        runtime_median_s=600.0,
        runtime_max_s=4 * 3600.0,
    )
    return synthesize_trace(seed, 0.9, config=config)


def replay(client: ServiceClient, jobs, *, speedup: float,
           retry_backoff_s: float = 0.01,
           max_retries: int = 1000) -> dict:
    """Submit every job (paced when ``speedup > 0``), retrying
    backpressure rejections; returns wall timing and counts."""
    t0 = time.monotonic()
    accepted = 0
    retried = 0
    for job in jobs:
        if speedup > 0:
            target = t0 + job.submit_time / speedup
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        payload = {
            "program": job.program.name,
            "procs": job.procs,
            "job_id": job.job_id,
            "submit_time": job.submit_time,
            "work_multiplier": job.work_multiplier,
        }
        attempts = 0
        while True:
            reply = client.submit(**payload)
            if reply.get("ok", False):
                accepted += 1
                break
            attempts += 1
            retried += 1
            if attempts > max_retries:
                raise RuntimeError(
                    f"job {job.job_id} rejected {attempts} times; giving up"
                )
            time.sleep(retry_backoff_s)
    wall = time.monotonic() - t0
    return {"accepted": accepted, "retried": retried, "wall": wall}


def run(args: argparse.Namespace) -> int:
    jobs = smoke_workload(args.seed, args.jobs, args.max_width)
    handle = None
    if args.serve:
        from repro.config import SimConfig
        from repro.hardware.topology import ClusterSpec
        from repro.service import SchedulerMaster, serve_in_thread
        from repro.sim.runtime import SchedulerCore

        fabric = parse_fabric(args.fabric)
        core = SchedulerCore.from_policy_name(
            args.policy, ClusterSpec(num_nodes=args.nodes, fabric=fabric),
            sim_config=SimConfig(
                perf_caches=not args.no_caches,
            ),
        )
        master = SchedulerMaster(core, queue_limit=args.queue_limit)
        handle = serve_in_thread(master)
        host, port = handle.host, handle.port
        topo = "flat network" if fabric is None else (
            f"racks of {fabric.rack_size}, "
            f"{fabric.oversubscription:g}:1 oversub"
        )
        print(f"loadgen: started in-process service on {host}:{port} "
              f"(policy {args.policy}, {args.nodes} nodes, {topo})")
    else:
        host, port = args.host, args.port

    pace = "firehose" if args.speedup <= 0 else f"{args.speedup:g}x real time"
    print(f"loadgen: replaying {len(jobs)} Trinity-like arrivals "
          f"to {host}:{port} ({pace})")
    exit_code = 0
    try:
        with ServiceClient(host, port) as client:
            client.ping()
            stats = replay(client, jobs, speedup=args.speedup)
            rate = stats["accepted"] / stats["wall"] if stats["wall"] > 0 \
                else float("inf")
            print(f"submitted {stats['accepted']} jobs in "
                  f"{stats['wall']:.3f}s wall "
                  f"({stats['retried']} backpressure retries) "
                  f"-> {rate:.1f} submits/s")
            summary = client.drain()
            lat = client.latencies()
            latencies = sorted(lat["latencies"])
            if not latencies:
                print("no jobs were placed; nothing to report")
                exit_code = 1
            else:
                p50 = percentile(latencies, 0.50) * 1e3
                p95 = percentile(latencies, 0.95) * 1e3
                p99 = percentile(latencies, 0.99) * 1e3
                print(f"placed {lat['placed']} jobs; submit->place latency "
                      f"p50={p50:.2f}ms p95={p95:.2f}ms p99={p99:.2f}ms")
            print(f"drain: makespan={summary['makespan']:.1f}s virtual, "
                  f"finished={summary['finished']}, "
                  f"failed={summary['failed']}, "
                  f"events={summary['events']}")
            if lat["awaiting"]:
                print(f"ERROR: {lat['awaiting']} submissions never placed")
                exit_code = 1
            if summary["finished"] + summary["failed"] != stats["accepted"]:
                print("ERROR: drain did not account for every submission")
                exit_code = 1
            if args.min_rate > 0 and rate < args.min_rate:
                print(f"ERROR: sustained {rate:.1f} submits/s "
                      f"< required {args.min_rate:.1f}")
                exit_code = 4
            if args.shutdown or args.serve:
                client.shutdown()
    finally:
        if handle is not None:
            handle.stop()
            print("clean shutdown")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7044)
    parser.add_argument(
        "--serve", action="store_true",
        help="start an in-process service (ignores --host/--port) and "
             "shut it down afterwards — the CI smoke mode",
    )
    parser.add_argument("--policy", default="SNS",
                        choices=("CE", "CE-BF", "CS", "SNS"),
                        help="policy for --serve (default SNS)")
    parser.add_argument("--nodes", type=int, default=32,
                        help="cluster size for --serve (default 32)")
    parser.add_argument("--queue-limit", type=int, default=256,
                        help="admission queue bound for --serve")
    parser.add_argument("--no-caches", action="store_true",
                        help="run --serve on the reference kernels")
    parser.add_argument(
        "--fabric", default=None, metavar="RACK_SIZE:OVERSUB",
        help="leaf-spine fabric for --serve (e.g. 8:4 = racks of 8 at "
             "4:1 oversubscription); default flat network",
    )
    parser.add_argument("--jobs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-width", type=int, default=4,
                        help="widest job in nodes (default 4)")
    parser.add_argument(
        "--speedup", type=float, default=0.0,
        help="replay arrivals at Nx real time (0 = firehose, default)",
    )
    parser.add_argument(
        "--min-rate", type=float, default=0.0, metavar="R",
        help="fail (exit 4) if sustained submit rate drops below R/s",
    )
    parser.add_argument("--shutdown", action="store_true",
                        help="send shutdown to a remote service when done")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
