"""The ``service-sns`` workload: the live master under open-loop load.

The master runs as ``python -m repro serve`` in its own process (SNS on
1,024 nodes).  One single-threaded load process — this one — streams
loadgen-shaped submissions over one connection on a fixed schedule,
whatever the service does (an open loop).  Every submission is timed
from when it was due, so a stall in the service also delays the acks of
the submissions due behind it.  Retryable backpressure rejections are
re-sent at once, up to ``RETRY_BUDGET`` times.

After the load the master is drained, and its summary must equal a
batch ``SchedulerCore.run()`` of the accepted arrival order.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import inputs
from hostspeed import HostSpeed, scale_of
from repro.config import SimConfig
from repro.hardware.topology import ClusterSpec
from repro.sim.job import Job
from repro.sim.runtime import SchedulerCore

ROOT = Path(__file__).resolve().parent.parent

RETRY_BUDGET = 100
REPLY_TIMEOUT_S = 30.0
#: Ack p99 limit that defines the sustainable rate.
ACK_LIMIT_MS = 20.0
#: The end-to-end rate: far enough below saturation (about 250/s for
#: this master on a 2-core box at the seed commit) that the ack time
#: measures the service's request path, not queueing behind it.
RATE = 100.0
#: The low and high reference rates of the per-layer service metrics.
LOW_RATE = 200.0
HIGH_RATE = 500.0
#: Each rate phase needs 10 samples beyond its 99th percentile.
MIN_SAMPLES = 1000
RAMP_FACTOR = 1.25
RAMP_MAX = 4000.0
#: Service starts per untraced run (set-up samples); the last
#: ``STREAMS`` of them each serve one independent submission stream.
#: Pooling streams averages out how heavily one seed's stream loads the
#: cluster, which otherwise dominates the run-to-run spread.
SPAWNS = 5
STREAMS = 4
#: Shares of ``--seconds`` spent streaming submissions and replaying
#: the accepted streams in batch.
LIVE_SHARE = 0.75
REPLAY_SHARE = 0.4
#: Batch replay rounds over every accepted stream: at least
#: ``MIN_REPLAYS``, more while the replay share lasts (per-stream median
#: wall, so a burst of load from other tenants spoils one round only).
MIN_REPLAYS = 3
MAX_REPLAYS = 15


class Conn:
    """One JSON-lines connection, written for an open loop: requests go
    out without waiting, replies are read when the socket is ready."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def read_lines(self, timeout: float) -> Tuple[List[bytes], float]:
        ready, _, _ = select.select([self.sock], [], [], timeout)
        if not ready:
            return [], time.perf_counter()
        chunk = self.sock.recv(1 << 16)
        now = time.perf_counter()
        if not chunk:
            raise ConnectionError("service closed the connection")
        self.buf += chunk
        *lines, self.buf = self.buf.split(b"\n")
        return lines, now

    def request(self, payload: dict) -> dict:
        self.send(json.dumps(payload).encode() + b"\n")
        deadline = time.perf_counter() + REPLY_TIMEOUT_S
        while True:
            lines, now = self.read_lines(max(0.0, deadline - time.perf_counter()))
            if lines:
                return json.loads(lines[0])
            if now >= deadline:
                raise TimeoutError(f"no reply to {payload['op']}")

    def close(self) -> None:
        self.sock.close()


@dataclass
class Stream:
    """The submissions of one service instance, in generation order."""

    jobs: List[Job]
    lines: List[bytes]
    accepted: List[Tuple[int, float]] = field(default_factory=list)
    next: int = 0
    retries: int = 0
    rejected_final: int = 0

    @classmethod
    def generate(cls, seed: int, n: int) -> "Stream":
        jobs = inputs.service_jobs(seed, n)
        lines = [
            json.dumps({
                "op": "submit", "program": j.program.name,
                "procs": j.procs, "job_id": j.job_id,
                "submit_time": j.submit_time,
                "work_multiplier": j.work_multiplier,
            }).encode() + b"\n"
            for j in jobs
        ]
        return cls(jobs, lines)

    def accepted_jobs(self) -> List[Job]:
        """Fresh jobs in the master's arrival order, at the virtual
        submit times the master assigned."""
        out = []
        for idx, submit_time in self.accepted:
            j = self.jobs[idx]
            out.append(Job(job_id=j.job_id, program=j.program,
                           procs=j.procs, submit_time=submit_time,
                           work_multiplier=j.work_multiplier))
        return out


@dataclass
class Phase:
    rate: float
    ack_s: List[float]
    late_s: List[float]

    def ack_ms(self, q: float) -> float:
        return float(np.percentile(np.asarray(self.ack_s) * 1e3, q))

    @property
    def late_max_ms(self) -> float:
        return max(self.late_s) * 1e3

    @property
    def late_growing(self) -> bool:
        """Lateness still above the limit in the second half."""
        half = self.late_s[len(self.late_s) // 2:]
        return max(half) * 1e3 > ACK_LIMIT_MS


def run_phase(conn: Conn, stream: Stream, rate: float, n: int) -> Phase:
    """Send the stream's next ``n`` submissions at ``rate`` per second
    and wait for every reply."""
    clock = time.perf_counter
    lo = stream.next
    if lo + n > len(stream.jobs):
        raise RuntimeError("submission stream exhausted")
    stream.next += n
    ack: List[float] = []
    late: List[float] = []
    inflight: deque = deque()
    attempts: Dict[int, int] = {}
    t0 = clock() + 0.002
    sent = 0
    while sent < n or inflight:
        now = clock()
        while sent < n:
            due = t0 + sent / rate
            if due > now:
                break
            conn.send(stream.lines[lo + sent])
            now = clock()
            late.append(now - due)
            inflight.append((lo + sent, due))
            sent += 1
        if sent < n:
            timeout = max(0.0, t0 + sent / rate - clock())
        else:
            timeout = REPLY_TIMEOUT_S
        lines, now = conn.read_lines(timeout)
        if not lines and sent >= n:
            raise TimeoutError("service stopped replying")
        for line in lines:
            idx, due = inflight.popleft()
            reply = json.loads(line)
            if reply.get("ok"):
                ack.append(now - due)
                stream.accepted.append((idx, reply["submit_time"]))
            elif reply.get("retryable") and attempts.get(idx, 0) < RETRY_BUDGET:
                attempts[idx] = attempts.get(idx, 0) + 1
                stream.retries += 1
                conn.send(stream.lines[idx])
                inflight.append((idx, due))
            else:
                stream.rejected_final += 1
    return Phase(rate, ack, late)


def settle(conn: Conn) -> dict:
    """Wait until the master has ingested every admitted submission
    (its scheduler task steps synchronously after each dequeue), then
    return its stats."""
    while True:
        stats = conn.request({"op": "stats"})
        if stats["queue_depth"] == 0:
            return stats
        time.sleep(0.005)


def place_latencies(conn: Conn, since: int) -> Tuple[List[float], int]:
    lat = conn.request({"op": "latencies"})
    return lat["latencies"][since:], lat["placed"]


# ----------------------------------------------------------------- process

SERVING = re.compile(r" at ([\d.]+):(\d+) ")


class ServiceProcess:
    """``python -m repro serve`` as a child process."""

    def __init__(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--policy", "SNS",
             "--nodes", str(inputs.SERVICE_NODES), "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = SERVING.search(line)
            if match is None:
                raise RuntimeError(f"service did not start: {line!r}")
            self.conn = Conn(match.group(1), int(match.group(2)))
            if not self.conn.request({"op": "ping"}).get("pong"):
                raise RuntimeError("service did not answer ping")
        except BaseException:
            self.kill()
            raise
        self.setup_s = clock() - t0

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def stop(self) -> None:
        try:
            self.conn.request({"op": "shutdown"})
            self.proc.wait(timeout=20)
        finally:
            self.conn.close()
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


# ------------------------------------------------------------ equivalence

@dataclass
class Check:
    ok: bool
    replay_s: float
    events: int
    problem: str = ""


def batch_check(stream: Stream, summary: dict, perturb: bool,
                spans=None) -> Check:
    """Replay the accepted arrival order in batch and compare with the
    drained master's summary; ``spans`` (a span recorder's
    ``installed()`` context) traces the replay."""
    core = SchedulerCore.from_policy_name(
        "SNS", ClusterSpec(num_nodes=inputs.SERVICE_NODES),
        stream.accepted_jobs(), sim_config=SimConfig(telemetry=False),
    )
    t0 = time.perf_counter()
    if spans is not None:
        with spans:
            result = core.run()
    else:
        result = core.run()
    wall = time.perf_counter() - t0
    snap = core.snapshot()
    expected = {
        "makespan": result.makespan,
        "finished": snap.finished,
        "failed": snap.failed,
        "events": result.events,
        "mean_turnaround": snap.mean_turnaround,
    }
    if perturb:
        expected["makespan"] = math.nextafter(expected["makespan"], math.inf)
    got = {key: summary.get(key) for key in expected}
    if got != expected:
        return Check(False, wall, result.events,
                     f"service summary {got} != batch replay {expected}")
    return Check(True, wall, result.events)


def _finish(conn: Conn) -> Tuple[dict, int]:
    """Drain the master; returns its summary and the number of accepted
    submissions it never placed."""
    summary = conn.request({"op": "drain"})
    if not summary.get("ok"):
        raise RuntimeError(f"drain failed: {summary}")
    lat = conn.request({"op": "latencies"})
    return summary, lat["awaiting"]


def _failures(stream: Stream, awaiting: int, check: Check) -> int:
    attempted = stream.next
    if not check.ok:
        return attempted
    return min(attempted, stream.rejected_final + awaiting)


def phase_len(seconds: float, share: float, rate: float) -> int:
    return max(MIN_SAMPLES, int(seconds * share * rate))


# ------------------------------------------------------------------ runs

def run_untraced(seed: int, seconds: float, perturb: bool) -> dict:
    """Each spawn and each batch replay is scaled to the reference host
    speed by the probes around it (hostspeed.py).  The
    submit→place times are not scaled: each is a ~1 ms burst of work
    in a service process that idles between arrivals, and the probes,
    taken in this process, did not track it (over ten seeds the
    scaled p50 spread 0.16, the raw one 0.08)."""
    host = HostSpeed()
    n = max(1, int(seconds * LIVE_SHARE * RATE / STREAMS))
    streams = [Stream.generate(seed * STREAMS + i, n)
               for i in range(STREAMS)]
    setups: List[float] = []
    setups_raw: List[float] = []
    place: List[float] = []
    acks: List[float] = []
    served = []
    rss = 0.0
    for i in range(SPAWNS):
        before = host.sample()
        svc = ServiceProcess()
        setups_raw.append(svc.setup_s)
        setups.append(svc.setup_s * scale_of(before + host.sample()))
        k = i - (SPAWNS - STREAMS)
        try:
            if k >= 0:
                phase = run_phase(svc.conn, streams[k], RATE, n)
                settle(svc.conn)
                place += place_latencies(svc.conn, 0)[0]
                acks += phase.ack_s
                served.append(_finish(svc.conn))
                rss = max(rss, svc.peak_rss_mb())
        finally:
            svc.stop()
    checks: List[List[Check]] = [[] for _ in streams]
    walls: List[List[float]] = [[] for _ in streams]
    start = time.perf_counter()
    before = host.sample()
    while len(checks[0]) < MAX_REPLAYS and (
            len(checks[0]) < MIN_REPLAYS
            or time.perf_counter() - start < seconds * REPLAY_SHARE):
        for stream, (summary, _), done, wall in zip(streams, served, checks,
                                                    walls):
            check = batch_check(stream, summary, perturb)
            after = host.sample()
            done.append(check)
            wall.append(check.replay_s * scale_of(before + after))
            before = after
    events, failed, problems = 0, 0, []
    for stream, (_, awaiting), done in zip(streams, served, checks):
        check = next((c for c in done if not c.ok), done[0])
        events += check.events
        failed += _failures(stream, awaiting, check)
        if not check.ok:
            problems.append(check.problem)
    replay_s = sum(statistics.median(w) for w in walls)
    replay_raw = sum(statistics.median(c.replay_s for c in done)
                     for done in checks)
    ack_ms = np.asarray(acks) * 1e3
    notes = [f"service-sns: {STREAMS} streams of {n} submissions at "
             f"{RATE:g}/s, ack p50 {np.percentile(ack_ms, 50):.3f} ms, "
             f"p99 {np.percentile(ack_ms, 99):.2f} ms, "
             f"{len(place)} placed before the drain, "
             f"{len(checks[0])} batch replay rounds",
             host.note(),
             f"raw wall: setup {statistics.median(setups_raw):.4f} s, "
             f"replay {replay_raw:.3f} s"] + problems
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "replay_s": (replay_s, "s"),
        "events_per_s": (events / replay_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "resp_p50_ms": (float(np.percentile(place, 50)) * 1e3, "ms"),
    }
    return {"metrics": metrics, "attempted": STREAMS * n,
            "failed": failed, "notes": notes}


def _ramp(conn: Conn, stream: Stream, first: Phase,
          ) -> Tuple[float, List[str]]:
    """Step the rate up from ``first`` by ``RAMP_FACTOR`` until the ack
    p99 limit is exceeded or the generator's lateness keeps growing.
    The sustainable rate is interpolated on p99 between the last
    passing and the first failing step."""
    notes = []
    last: Optional[Phase] = None
    step = first
    while True:
        p99 = step.ack_ms(99)
        notes.append(f"ramp {step.rate:7.1f}/s: ack p99 {p99:8.2f} ms, "
                     f"late max {step.late_max_ms:7.2f} ms")
        if p99 > ACK_LIMIT_MS or step.late_growing:
            break
        last = step
        if step.rate * RAMP_FACTOR > RAMP_MAX:
            return step.rate, notes
        rate = step.rate * RAMP_FACTOR
        step = run_phase(conn, stream, rate, phase_len(2.0, 1.0, rate))
        settle(conn)
    if last is None:
        return step.rate * min(1.0, ACK_LIMIT_MS / p99), notes
    lp99 = last.ack_ms(99)
    if p99 > ACK_LIMIT_MS and p99 > lp99:
        frac = (ACK_LIMIT_MS - lp99) / (p99 - lp99)
        return last.rate + frac * (step.rate - last.rate), notes
    return last.rate, notes


def run_traced(seed: int, seconds: float, perturb: bool, recorder) -> dict:
    """Phase A: the service process under a rate ramp from ``LOW_RATE``
    up, then at ``HIGH_RATE`` (service-only latency and rate metrics).
    Phase B: the master hosted in this process with spans recorded, at
    ``RATE`` (per-layer attribution)."""
    from repro.service import SchedulerMaster, serve_in_thread

    n_low = phase_len(seconds, 0.25, LOW_RATE)
    n_high = phase_len(seconds, 0.1, HIGH_RATE)
    n_traced = phase_len(seconds, 0.25, RATE)
    stream = Stream.generate(seed, 40000)
    svc = ServiceProcess()
    try:
        low = run_phase(svc.conn, stream, LOW_RATE, n_low)
        settle(svc.conn)
        max_rate, notes = _ramp(svc.conn, stream, low)
        _, placed0 = place_latencies(svc.conn, 0)
        high = run_phase(svc.conn, stream, HIGH_RATE, n_high)
        stats = settle(svc.conn)
        place, _ = place_latencies(svc.conn, placed0)
        summary, awaiting = _finish(svc.conn)
    finally:
        svc.stop()
    check_a = batch_check(stream, summary, perturb)
    attempted = stream.next
    failed = _failures(stream, awaiting, check_a)
    place_ms = np.asarray(place) * 1e3
    service = {
        "service.ack_p50_ms": high.ack_ms(50),
        "service.ack_p99_ms": high.ack_ms(99),
        "service.ack_p99_low_ms": low.ack_ms(99),
        "service.place_p50_ms": float(np.percentile(place_ms, 50)),
        "service.place_p99_ms": float(np.percentile(place_ms, 99)),
        "service.max_rate": max_rate,
        "service.rejected": float(stats["rejected"]),
        "retries": stream.retries,
        "submissions": attempted,
        "loadgen.late_max_ms": max(low.late_max_ms, high.late_max_ms),
    }
    notes.insert(0, f"phase A: {n_low} submissions at {LOW_RATE:g}/s, the "
                    f"ramp, then {n_high} at {HIGH_RATE:g}/s "
                    f"({len(place)} placements)")
    notes.append(f"at {HIGH_RATE:g}/s: ack p50 {high.ack_ms(50):.2f} ms, "
                 f"p99 {high.ack_ms(99):.2f} ms")
    if not check_a.ok:
        notes.append(check_a.problem)

    # Phase B: in-process master, spans on.
    stream_b = Stream.generate(seed + 1, n_traced)
    core = SchedulerCore.from_policy_name(
        "SNS", ClusterSpec(num_nodes=inputs.SERVICE_NODES),
        sim_config=SimConfig(telemetry=False),
    )
    master = SchedulerMaster(core)
    handle = serve_in_thread(master)
    try:
        conn = Conn(handle.host, handle.port)
        with recorder.installed():
            t0 = time.perf_counter()
            run_phase(conn, stream_b, RATE, n_traced)
            settle(conn)
            wall_b = time.perf_counter() - t0
        analysis = recorder.analyse()
        summary_b, awaiting_b = _finish(conn)
        conn.request({"op": "shutdown"})
        conn.close()
    finally:
        handle.stop()
    counters = dict(core.peek_result().counters)
    records = len(core.tracer.events)
    check_b = batch_check(stream_b, summary_b, perturb)
    traced_b = batch_check(stream_b, summary_b, perturb,
                           spans=recorder.installed())
    # The traced batch replay is one more checked operation.
    attempted += stream_b.next + 1
    failed += _failures(stream_b, awaiting_b, check_b) + (not traced_b.ok)
    notes += [c.problem for c in (check_b, traced_b) if not c.ok]
    return {"attempted": attempted, "failed": failed, "wall_s": wall_b,
            "counters": counters, "records": records,
            "trace_overhead": traced_b.replay_s / check_b.replay_s,
            "analysis": analysis, "service": service, "notes": notes}
