"""The two trace-replay workloads: ``trinity-sns`` and ``trinity-ce-fabric``.

Each replay runs single-threaded in this process through the public
batch API: ``synthesize_trace`` (and ``FaultPlan.from_mtbf``) build the
inputs, ``SchedulerCore.from_policy_name`` builds the core, and the core
is driven to exhaustion with ``start()`` / ``step()`` / ``finalize()`` —
the loop ``SchedulerCore.run()`` consists of — so that every event batch
can be timed as one scheduler response.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import inputs
from hostspeed import HostSpeed, scale_of
from repro.config import SimConfig
from repro.sim.runtime import SchedulerCore

SIM_CONFIG = SimConfig(telemetry=False, max_sim_time=1e12)


@dataclass(frozen=True)
class ReplaySpec:
    policy: str
    cluster: object
    with_faults: bool


SPECS = {
    "trinity-sns": ReplaySpec("SNS", inputs.SNS_CLUSTER, False),
    "trinity-ce-fabric": ReplaySpec("CE", inputs.CE_CLUSTER, True),
}


@dataclass
class Replay:
    setup_s: float
    wall_s: float
    events: int
    step_s: List[float]
    digest: str
    counters: Dict[str, int]


def build_core(spec: ReplaySpec, trace_seed: int) -> SchedulerCore:
    """Everything before the first simulated event: inputs and core."""
    jobs = inputs.trinity_trace(trace_seed)
    plan = inputs.fault_plan(trace_seed) if spec.with_faults else None
    return SchedulerCore.from_policy_name(
        spec.policy, spec.cluster, jobs, sim_config=SIM_CONFIG,
        fault_plan=plan,
    )


def replay(spec: ReplaySpec, trace_seed: int,
           around_loop: Optional[Callable] = None) -> Replay:
    clock = time.perf_counter
    t0 = clock()
    core = build_core(spec, trace_seed)
    setup = clock() - t0
    steps: List[float] = []
    append = steps.append

    def loop():
        core.start()
        step = core.step
        while True:
            a = clock()
            more = step()
            append(clock() - a)
            if not more:
                break
        return core.finalize()

    t1 = clock()
    result = around_loop(loop) if around_loop is not None else loop()
    wall = clock() - t1
    return Replay(setup, wall, result.events, steps[:-1],
                  inputs.result_digest(result), dict(result.counters))


class Checker:
    """Counts replays and digest mismatches against ``digests.json``."""

    def __init__(self, workload: str, perturb: bool) -> None:
        self.workload = workload
        self.table = inputs.load_digests()
        self.perturb = perturb
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, trace_seed: int, digest: Optional[str]) -> None:
        self.attempted += 1
        expected = inputs.expected_digest(self.table, self.workload,
                                          trace_seed)
        if expected is not None and self.perturb:
            expected = ("0" if expected[0] != "0" else "1") + expected[1:]
        if digest is None:
            self.failed += 1
            self.problems.append(f"trace {trace_seed}: replay raised")
        elif expected is None:
            self.failed += 1
            self.problems.append(f"trace {trace_seed}: no expected digest")
        elif digest != expected:
            self.failed += 1
            self.problems.append(
                f"trace {trace_seed}: digest {digest[:12]} != expected "
                f"{expected[:12]}")


def _guarded(checker: Checker, spec: ReplaySpec, seed: int,
             around_loop=None) -> Optional[Replay]:
    try:
        rep = replay(spec, seed, around_loop)
    except Exception as exc:  # a raising replay is a failed operation
        checker.problems.append(f"trace {seed}: {exc!r}")
        checker.check(seed, None)
        return None
    checker.check(seed, rep.digest)
    return rep


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: str, seed: int, seconds: float,
                 perturb: bool) -> dict:
    """Replay the run's traces in rounds until ``seconds`` have passed;
    per-trace walls are medians over rounds.  Timings are scaled to the
    reference host speed (see hostspeed.py): each replay, with its
    set-up and its steps, by the probes around it."""
    spec = SPECS[workload]
    checker = Checker(workload, perturb)
    host = HostSpeed()
    seeds = inputs.trace_seeds(workload, seed)
    walls: Dict[int, List[float]] = {s: [] for s in seeds}
    raw: Dict[int, List[float]] = {s: [] for s in seeds}
    events: Dict[int, int] = {}
    setups: List[float] = []
    raw_setups: List[float] = []
    steps: List[np.ndarray] = []
    raw_steps: List[float] = []
    start = time.perf_counter()
    before = host.sample()
    while True:
        for s in seeds:
            rep = _guarded(checker, spec, s)
            after = host.sample()
            if rep is not None:
                scale = scale_of(before + after)
                setups.append(rep.setup_s * scale)
                raw_setups.append(rep.setup_s)
                walls[s].append(rep.wall_s * scale)
                raw[s].append(rep.wall_s)
                events[s] = rep.events
                steps.append(np.asarray(rep.step_s) * scale)
                raw_steps.extend(rep.step_s)
            before = after
        if time.perf_counter() - start >= seconds:
            break
    medians = {s: statistics.median(w) for s, w in walls.items() if w}
    if not medians:
        raise RuntimeError("every replay failed: " + "; ".join(
            checker.problems))
    replay_s = statistics.fmean(medians.values())
    events_per_s = sum(events[s] for s in medians) / sum(medians.values())
    step_ms = float(np.percentile(np.concatenate(steps), 50)) * 1e3
    raw_replay = statistics.fmean(statistics.median(raw[s]) for s in medians)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "replay_s": (replay_s, "s"),
        "events_per_s": (events_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "resp_p50_ms": (step_ms, "ms"),
    }
    notes = [
        f"{workload}: traces {seeds}, {len(setups)} replays, "
        f"{len(raw_steps)} step samples",
        host.note(),
        f"raw wall: setup {statistics.median(raw_setups):.4f} s, "
        f"replay {raw_replay:.3f} s, "
        f"step p50 {np.percentile(raw_steps, 50) * 1e3:.4f} ms",
    ] + checker.problems
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "notes": notes}


def run_traced(workload: str, seed: int, seconds: float, perturb: bool,
               recorder) -> dict:
    """One untraced replay of the first trace (the overhead base), then
    every trace of the run with spans recorded around the event loop."""
    spec = SPECS[workload]
    checker = Checker(workload, perturb)
    seeds = inputs.trace_seeds(workload, seed)
    base = _guarded(checker, spec, seeds[0])

    def traced(loop):
        with recorder.installed():
            return loop()

    counters: Dict[str, int] = {}
    walls: Dict[int, float] = {}
    for s in seeds:
        rep = _guarded(checker, spec, s, traced)
        if rep is None:
            continue
        walls[s] = rep.wall_s
        for key, value in rep.counters.items():
            counters[key] = counters.get(key, 0) + value
    overhead = (walls[seeds[0]] / base.wall_s
                if base is not None and seeds[0] in walls else 0.0)
    return {"attempted": checker.attempted, "failed": checker.failed,
            "wall_s": sum(walls.values()), "counters": counters,
            "trace_overhead": overhead, "service": {},
            "notes": checker.problems}


def record_digests(workload: str, run_seeds: List[int]) -> Dict[str, str]:
    """Replay every trace of the given run seeds and return their
    digests (used to regenerate ``digests.json``)."""
    spec = SPECS[workload]
    out: Dict[str, str] = {}
    for seed in run_seeds:
        for s in inputs.trace_seeds(workload, seed):
            out[str(s)] = replay(spec, s).digest
    return out
