"""Command-line interface: ``repro-sns`` / ``python -m repro``.

Subcommands
-----------
``list``
    List the reproducible experiments.
``run <fig-id> [--quick] [--jobs N]``
    Run one experiment and print its table (e.g. ``repro-sns run fig13``);
    ``--jobs N`` fans grid experiments out over N worker processes via
    :func:`repro.experiments.parallel.run_grid`.
``profile <program> [--procs N]``
    Run the profiling trial ladder for one catalog program and print the
    resulting profile.
``simulate [--policy SNS] [--seed N] [--jobs N] [--nodes N] [--faults SPEC]``
    Schedule one random sequence and print the schedule summary.
    ``--faults mtbf=3600,mttr=300,seed=7`` injects seeded MTBF/MTTR node
    failures (see :func:`repro.faults.parse_fault_spec` for all keys).
    ``--no-caches`` runs the unmemoized reference kernels
    (``SimConfig(perf_caches=False)``) — bit-identical by contract, the
    switch to flip when a result looks cache-shaped.
    ``--trace out.jsonl [--trace-level decisions|events|full]`` records
    a structured decision trace (DESIGN.md §10) as canonical JSONL;
    ``--trace-chrome out.json`` writes a Chrome ``trace_event`` file for
    chrome://tracing / ui.perfetto.dev.  Either flag also prints the
    trace's terminal summary.
``serve [--policy SNS] [--nodes N] [--host H] [--port P]``
    Run the live scheduler service (DESIGN.md §12): an asyncio master
    that accepts job submissions over TCP and advances simulated time
    only as submissions arrive.  Shares the simulation flags above
    (``--faults`` / ``--no-caches`` / ``--trace``…) through the same
    resolution helper, so they mean exactly the same thing here.
``submit PROGRAM --procs N [--host H] [--port P]``
    Submit one job to a running service (or query it:
    ``--stats`` / ``--latencies`` / ``--drain`` / ``--shutdown``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.apps.catalog import get_program, program_names
from repro.config import SimConfig, TraceConfig
from repro.errors import ReproError
from repro.experiments.common import run_policy
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.faults import parse_fault_spec
from repro.hardware.topology import ClusterSpec
from repro.profiling.profiler import profile_program
from repro.workloads.sequences import random_sequence


def _cmd_list(_: argparse.Namespace) -> int:
    for exp_id in sorted(EXPERIMENTS, key=lambda s: (len(s), s)):
        print(f"{exp_id:7s} {EXPERIMENTS[exp_id].description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    kwargs = dict(experiment.quick_kwargs) if args.quick else {}
    if args.quick and not kwargs:
        print(f"(note: {args.experiment} has no reduced mode; running full)")
    if args.parallel_jobs is not None:
        if experiment.parallel:
            kwargs["jobs"] = args.parallel_jobs
        else:
            print(f"(note: {args.experiment} has no parallel grid; "
                  "--jobs ignored)")
    result = experiment.run(**kwargs)
    print(experiment.render(result))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    program = get_program(args.program)
    cluster = ClusterSpec(num_nodes=args.nodes)
    profile = profile_program(
        program, args.procs, cluster.node, cluster.num_nodes
    )
    print(f"{program.name}: class={profile.scaling_class.value}, "
          f"ideal scale={profile.ideal_scale}x")
    for k in sorted(profile.scales):
        sp = profile.scales[k]
        print(f"  {k}x on {sp.n_nodes} node(s): {sp.time_s:.1f}s, "
              f"IPC@full={sp.ipc_llc(20.0):.2f}, "
              f"BW/proc@full={sp.bw_llc(20.0):.2f} GB/s")
    return 0


def resolve_sim_setup(args: argparse.Namespace):
    """The one config-resolution path behind ``simulate`` and ``serve``:
    both subcommands expose the same ``--nodes`` / ``--faults`` /
    ``--no-caches`` / ``--trace`` flags, and this helper gives them the
    same meaning — the cluster spec, the :class:`SimConfig`, and the
    parsed fault plan all come from here."""
    cluster = ClusterSpec(num_nodes=args.nodes)
    fault_plan = (
        parse_fault_spec(args.faults, cluster.num_nodes)
        if args.faults else None
    )
    tracing = bool(args.trace or args.trace_chrome)
    sim_config = SimConfig(
        perf_caches=not args.no_caches,
        trace=TraceConfig(level=args.trace_level) if tracing else None,
    )
    return cluster, sim_config, fault_plan, tracing


def _export_trace(args: argparse.Namespace, tracer) -> None:
    """Write/summarize a recorded trace per the shared ``--trace`` /
    ``--trace-chrome`` flags (used by ``simulate`` and ``serve``)."""
    from repro.obs import summarize, write_chrome_trace, write_jsonl

    assert tracer is not None
    if args.trace:
        count = write_jsonl(tracer.events, args.trace)
        print(f"wrote {count} trace records to {args.trace}")
    if args.trace_chrome:
        count = write_chrome_trace(
            tracer.events, args.trace_chrome, tracer.timeseries
        )
        print(f"wrote {count} Chrome trace events to "
              f"{args.trace_chrome} (open in chrome://tracing or "
              f"ui.perfetto.dev)")
    print(summarize(tracer.events, tracer.timeseries))


def _cmd_simulate(args: argparse.Namespace) -> int:
    cluster, sim_config, fault_plan, tracing = resolve_sim_setup(args)
    jobs = random_sequence(seed=args.seed, n_jobs=args.jobs)
    result = run_policy(
        args.policy, cluster, jobs, sim_config=sim_config,
        fault_plan=fault_plan,
    )
    if tracing:
        _export_trace(args, result.trace)
    print(f"{args.policy} on {args.nodes} nodes, {args.jobs} jobs "
          f"(seed {args.seed}):")
    print(f"  makespan      {result.makespan:10.1f} s")
    print(f"  throughput    {result.throughput() * 1e3:10.4f} /ks")
    print(f"  node-seconds  {result.node_seconds():10.0f}")
    if fault_plan is not None:
        counters = result.counters
        print(f"  failures      {counters['node_failures']:10d} "
              f"(evictions {counters['job_evictions']}, "
              f"jobs failed {counters['jobs_failed']})")
        print(f"  badput        {result.badput_node_seconds():10.0f} "
              f"node-s ({result.badput_fraction():.1%})")
    for job in sorted(result.finished_jobs, key=lambda j: j.job_id):
        placement = job.placement
        retry_note = f" retries={job.retries}" if job.retries else ""
        print(f"  job {job.job_id:3d} {job.program.name:4s} "
              f"p{job.procs:<3d} k={job.scale_factor} "
              f"nodes={placement.n_nodes} ways={placement.dedicated_ways:2d} "
              f"wait={job.wait_time:8.1f}s run={job.run_time:8.1f}s"
              f"{retry_note}")
    for job in sorted(result.failed_jobs, key=lambda j: j.job_id):
        print(f"  job {job.job_id:3d} {job.program.name:4s} "
              f"p{job.procs:<3d} FAILED after {job.retries} retries")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import SchedulerMaster
    from repro.sim.runtime import SchedulerCore

    cluster, sim_config, fault_plan, tracing = resolve_sim_setup(args)
    core = SchedulerCore.from_policy_name(
        args.policy, cluster, sim_config=sim_config, fault_plan=fault_plan,
    )
    master = SchedulerMaster(core, queue_limit=args.queue_limit)

    def ready(addr) -> None:
        print(f"serving {args.policy} on {args.nodes} simulated nodes "
              f"at {addr[0]}:{addr[1]} (queue limit {args.queue_limit})",
              flush=True)

    try:
        asyncio.run(master.serve(args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    snap = core.snapshot()
    print(f"served {master.accepted} submissions "
          f"({master.rejected} rejected): {snap.finished} finished, "
          f"{snap.failed} failed, {snap.pending} pending, "
          f"{snap.running} running at t={snap.now:.1f}s")
    if tracing:
        _export_trace(args, core.tracer)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    ops = [op for op in ("stats", "latencies", "drain", "shutdown")
           if getattr(args, op)]
    if not ops and args.program is None:
        print("error: nothing to do — give a PROGRAM or one of "
              "--stats/--latencies/--drain/--shutdown", file=sys.stderr)
        return 1
    with ServiceClient(args.host, args.port) as client:
        if args.program is not None:
            reply = client.submit(
                program=args.program, procs=args.procs,
                job_id=args.job_id, submit_time=args.submit_time,
                work_multiplier=args.work_multiplier,
            )
            if not reply.get("ok", False):
                # Retryable backpressure rejection: surface it as a
                # distinct exit code so scripts can back off and retry.
                print(f"rejected (retryable): {reply.get('error')}",
                      file=sys.stderr)
                return 2
            print(f"accepted job {reply['job_id']} "
                  f"at t={reply['submit_time']:.3f}s")
        for op in ops:
            reply = getattr(client, op)()
            reply.pop("ok", None)
            print(f"{op}: " + ", ".join(
                f"{k}={v}" for k, v in reply.items()
                if not isinstance(v, list)
            ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sns",
        description="Spread-n-Share (SC '19) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", help="experiment id, e.g. fig13")
    p_run.add_argument(
        "--quick", action="store_true",
        help="reduced configuration for heavy experiments (fig14-16, fig20)",
    )
    p_run.add_argument(
        "--jobs", type=int, default=None, dest="parallel_jobs",
        metavar="N",
        help="worker processes for grid experiments (0 = one per CPU); "
             "results are identical to a serial run",
    )

    p_prof = sub.add_parser("profile", help="profile one catalog program")
    p_prof.add_argument("program", choices=program_names())
    p_prof.add_argument("--procs", type=int, default=16)
    p_prof.add_argument("--nodes", type=int, default=8)

    p_sim = sub.add_parser("simulate", help="simulate one random sequence")
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--jobs", type=int, default=20)
    _add_sim_options(p_sim)

    p_serve = sub.add_parser(
        "serve", help="run the live scheduler service (DESIGN.md §12)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7044,
        help="TCP port (0 = ephemeral; default 7044)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="admission queue bound; a full queue rejects submissions "
             "with a retryable error (default 256)",
    )
    _add_sim_options(p_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one job to (or query) a running service"
    )
    p_submit.add_argument("program", nargs="?", default=None,
                          help="catalog program name (omit for query ops)")
    p_submit.add_argument("--procs", type=int, default=28)
    p_submit.add_argument("--job-id", type=int, default=None)
    p_submit.add_argument(
        "--submit-time", type=float, default=None, metavar="T",
        help="virtual submit time; clamped to the service watermark",
    )
    p_submit.add_argument("--work-multiplier", type=float, default=1.0)
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=7044)
    p_submit.add_argument("--stats", action="store_true",
                          help="print the service's /stats snapshot")
    p_submit.add_argument("--latencies", action="store_true",
                          help="print the submit->place latency summary")
    p_submit.add_argument("--drain", action="store_true",
                          help="run the service to completion and print "
                               "the final summary")
    p_submit.add_argument("--shutdown", action="store_true",
                          help="stop the service")

    return parser


def _add_sim_options(parser: argparse.ArgumentParser) -> None:
    """The flags ``simulate`` and ``serve`` share; both feed them
    through :func:`resolve_sim_setup`, so the semantics are identical
    by construction."""
    parser.add_argument("--policy", choices=("CE", "CE-BF", "CS", "SNS"),
                        default="SNS")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject seeded node failures, e.g. mtbf=3600,mttr=300,seed=7"
             " (keys: mtbf, mttr, seed, horizon, retries, backoff)",
    )
    parser.add_argument(
        "--no-caches", action="store_true",
        help="run the unmemoized reference kernels "
             "(SimConfig(perf_caches=False)); results are bit-identical",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a structured decision trace as JSONL (DESIGN.md §10)",
    )
    parser.add_argument(
        "--trace-level", choices=("decisions", "events", "full"),
        default="events",
        help="how much the tracer records (default: events)",
    )
    parser.add_argument(
        "--trace-chrome", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON file "
             "(open in chrome://tracing or ui.perfetto.dev)",
    )


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "profile": _cmd_profile,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
