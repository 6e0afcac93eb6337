"""Live scheduler service (DESIGN.md §12).

Covers the streaming :class:`SchedulerCore` contract (submit mid-run,
snapshots, incremental results), the service-vs-batch bit-identity
guarantee under concurrent multi-client submission,
admission-queue backpressure, fault reporting, and the wire protocol
(JSON lines and the minimal HTTP mapping on the same port).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.config import SimConfig, TraceConfig
from repro.errors import SimulationError
from repro.hardware.topology import ClusterSpec
from repro.service import (
    SchedulerMaster,
    ServiceClient,
    ServiceError,
    protocol,
    serve_in_thread,
)
from repro.sim.runtime import SchedulerCore, Simulation
from repro.workloads.sequences import clone_jobs, random_sequence
from tests.against_oracle import assert_matches_oracle


def fresh_core(policy="SNS", nodes=8, jobs=(), level=None):
    """A core over ``nodes`` nodes, traced at ``level`` when given."""
    trace = None if level is None else TraceConfig(level=level)
    return SchedulerCore.from_policy_name(
        policy, ClusterSpec(num_nodes=nodes), jobs,
        sim_config=SimConfig(trace=trace),
    )


def fingerprint(result):
    """Everything observable about a finished run, order-normalized."""
    return (
        result.makespan,
        result.mean_turnaround(),
        sorted(
            (j.job_id, j.program.name, j.procs, j.submit_time,
             j.start_time, j.finish_time,
             j.placement.n_nodes, j.placement.dedicated_ways)
            for j in result.jobs
        ),
    )


@contextmanager
def live_service(policy="SNS", nodes=8, queue_limit=256, level=None):
    core = fresh_core(policy=policy, nodes=nodes, level=level)
    master = SchedulerMaster(core, queue_limit=queue_limit)
    handle = serve_in_thread(master)
    try:
        yield master, handle
    finally:
        handle.stop()


class TestStreamingCore:
    """The batch loop IS the streaming loop run to exhaustion."""

    def test_run_equals_manual_step_loop(self):
        jobs = random_sequence(seed=5, n_jobs=8)
        batch = fresh_core(jobs=clone_jobs(jobs)).run()
        core = fresh_core(jobs=clone_jobs(jobs))
        core.start()
        while core.step():
            pass
        assert fingerprint(core.finalize()) == fingerprint(batch)

    def test_batch_facade_is_the_core(self):
        """`Simulation` is a facade subclass, not a parallel code path."""
        assert issubclass(Simulation, SchedulerCore)
        jobs = random_sequence(seed=5, n_jobs=6)
        spec = ClusterSpec(num_nodes=8)
        config = SimConfig()
        a = Simulation.from_policy_name(
            "SNS", spec, clone_jobs(jobs), sim_config=config).run()
        b = SchedulerCore.from_policy_name(
            "SNS", spec, clone_jobs(jobs), sim_config=config).run()
        assert fingerprint(a) == fingerprint(b)

    def test_submit_mid_run_matches_batch(self):
        """A job submitted while stepping lands exactly where the batch
        run would have put it."""
        jobs = random_sequence(seed=9, n_jobs=8)
        late = random_sequence(seed=10, n_jobs=1, start_id=len(jobs))[0]

        core = fresh_core(jobs=clone_jobs(jobs))
        core.start()
        for _ in range(3):
            assert core.step()
        late.submit_time = core.now + 0.5
        core.submit(late)
        streamed = core.run()

        batch_jobs = clone_jobs(jobs)
        late_clone = clone_jobs([late])[0]
        batch = fresh_core(jobs=batch_jobs + [late_clone]).run()
        assert fingerprint(streamed) == fingerprint(batch)

    def test_snapshot_and_peek_result(self):
        jobs = random_sequence(seed=3, n_jobs=6)
        core = fresh_core(jobs=clone_jobs(jobs))
        snap = core.snapshot()
        assert snap.submitted == 6
        assert snap.finished == 0
        assert snap.next_event_time == 0.0
        core.start()
        # The lifecycle counters account for every job after every step.
        while core.step():
            partial = core.peek_result()
            assert partial.complete is False
            snap = core.snapshot()
            assert snap.submitted == 6
            assert (snap.pending + snap.running
                    + snap.finished + snap.failed) == 6
        final = core.finalize()
        assert final.complete is True
        snap = core.snapshot()
        assert snap.finished == 6
        assert snap.next_event_time is None
        assert snap.mean_turnaround == pytest.approx(final.mean_turnaround())

    def test_snapshot_counts_jobs_not_yet_arrived(self):
        """Submits at distinct future times: a job whose submit event
        has not been processed yet still counts as pending, so the
        lifecycle counters add up after every step."""
        jobs = random_sequence(seed=3, n_jobs=6)
        for k, job in enumerate(jobs):
            job.submit_time = 100.0 * k
        core = fresh_core(jobs=jobs)
        snap = core.snapshot()
        assert (snap.submitted, snap.pending) == (6, 6)
        steps = 0
        while core.step():
            steps += 1
            snap = core.snapshot()
            assert snap.submitted == 6
            assert (snap.pending + snap.running
                    + snap.finished + snap.failed) == 6
        assert steps > 6
        assert core.snapshot().finished == 6

    def test_duplicate_submit_rejected(self):
        jobs = random_sequence(seed=1, n_jobs=2)
        core = fresh_core(jobs=clone_jobs(jobs))
        with pytest.raises(SimulationError, match="duplicate job ids"):
            core.submit(clone_jobs(jobs)[0])


class TestServiceBatchIdentity:
    """The tentpole contract: a streamed run is bit-identical to a
    batch `run()` over the same jobs in the same arrival order."""

    CLIENT_WORKLOADS = [
        [("WC", 28), ("MG", 56), ("CG", 28), ("EP", 28), ("BFS", 56),
         ("HC", 28)],
        [("LU", 28), ("BW", 28), ("WC", 56), ("RNN", 28), ("MG", 28),
         ("TS", 28)],
        [("CG", 56), ("EP", 56), ("NW", 28), ("HC", 28), ("BW", 56),
         ("WC", 28)],
    ]

    @pytest.mark.parametrize("level", [None, "full"])
    def test_concurrent_clients_match_batch(self, level):
        """With the master's own decisions-level audit tracer, or a
        full-level one; the oracle also replays the arrival order."""
        with live_service(level=level) as (master, handle):
            errors = []

            def client_thread(workload):
                try:
                    with ServiceClient(handle.host, handle.port) as client:
                        for k, (program, procs) in enumerate(workload):
                            reply = client.submit(
                                program=program, procs=procs,
                                submit_time=k * 30.0,
                            )
                            assert reply["ok"], reply
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_thread, args=(w,))
                for w in self.CLIENT_WORKLOADS
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors

            n_jobs = sum(len(w) for w in self.CLIENT_WORKLOADS)
            with ServiceClient(handle.host, handle.port) as client:
                summary = client.drain()
                lat = client.latencies()
                stats = client.stats()
            assert summary["finished"] + summary["failed"] == n_jobs
            assert lat["placed"] == n_jobs
            assert lat["awaiting"] == 0
            assert len(lat["latencies"]) == n_jobs
            assert all(v >= 0.0 for v in lat["latencies"])
            assert stats["drained"] is True

            # The service admitted jobs in some interleaving; the batch
            # twin replays exactly that order (ids are assigned at
            # admission, so id order == arrival order).
            arrival = [master.core.jobs[i]
                       for i in sorted(master.core.jobs)]
            streamed = master.core.finalize()
            batch = fresh_core(jobs=clone_jobs(arrival)).run()
            assert fingerprint(streamed) == fingerprint(batch)
            assert summary["makespan"] == batch.makespan
            assert summary["mean_turnaround"] == pytest.approx(
                batch.mean_turnaround())
            if level == "full":
                # The batch twin of the arrival order on the oracle.
                assert_matches_oracle(
                    fresh_core(jobs=clone_jobs(arrival), level="full"))

    def test_job_views_track_lifecycle(self):
        with live_service() as (master, handle):
            with ServiceClient(handle.host, handle.port) as client:
                reply = client.submit(program="MG", procs=28)
                job_id = reply["job_id"]
                client.drain()
                view = client.job(job_id)
                assert view["state"] == "finished"
                assert view["program"] == "MG"
                assert view["finish_time"] > view["start_time"]
                assert view["turnaround"] > 0.0
                assert view["n_nodes"] >= 1
                with pytest.raises(ServiceError, match="unknown job"):
                    client.job(10_000)


class TestBackpressure:
    def test_bounded_queue_rejects_retryable(self):
        with live_service(queue_limit=4) as (master, handle):
            with ServiceClient(handle.host, handle.port) as client:
                client.pause()
                rejection = None
                accepted = 0
                # The scheduler task may already be parked inside the
                # gate and so consume the first enqueued batch; the
                # queue then backs up and must overflow within
                # queue_limit + 2 further submissions.
                for _ in range(10):
                    reply = client.submit(program="EP", procs=28)
                    if reply.get("ok", False):
                        accepted += 1
                    else:
                        rejection = reply
                        break
                assert rejection is not None, "queue never overflowed"
                assert rejection["retryable"] is True
                assert "queue full" in rejection["error"]
                stats = client.stats()
                assert stats["rejected"] >= 1
                assert stats["accepted"] == accepted

                # The rejection left no trace: admission resumes and
                # every accepted job completes.
                client.resume()
                retried = client.submit(program="EP", procs=28)
                assert retried["ok"], retried
                summary = client.drain()
                assert summary["finished"] == accepted + 1
                assert summary["failed"] == 0

    def test_watermark_clamps_stale_submit_times(self):
        with live_service() as (master, handle):
            with ServiceClient(handle.host, handle.port) as client:
                first = client.submit(program="WC", procs=28,
                                      submit_time=100.0)
                assert first["submit_time"] == 100.0
                stale = client.submit(program="WC", procs=28,
                                      submit_time=50.0)
                assert stale["submit_time"] == 100.0


class TestFaultReporting:
    def test_unschedulable_job_reports_fault(self):
        """A genuinely unschedulable submission (GAN cannot span nodes)
        must surface as a fault reply, not a dropped connection."""
        with live_service() as (master, handle):
            with ServiceClient(handle.host, handle.port) as client:
                client.submit(program="GAN", procs=56)
                with pytest.raises(ServiceError,
                                   match="placed nothing on an idle"):
                    client.drain()
                stats = client.stats()
                assert stats["fault"] is not None
                reply = client.request({"op": "submit", "program": "WC",
                                        "procs": 28})
                assert reply["ok"] is False
                assert reply["retryable"] is False
                assert "scheduler fault" in reply["error"]

    def test_bad_submissions_rejected_without_state_change(self):
        with live_service() as (master, handle):
            with ServiceClient(handle.host, handle.port) as client:
                for payload in (
                    {"op": "submit"},                      # no program
                    {"op": "submit", "program": "NOPE",
                     "procs": 28},                         # unknown program
                    {"op": "submit", "program": "WC"},     # no procs
                    {"op": "nope"},                        # unknown op
                ):
                    reply = client.request(payload)
                    assert reply["ok"] is False
                    assert reply["retryable"] is False
                ok = client.submit(program="WC", procs=28, job_id=7)
                dup = client.request({"op": "submit", "program": "WC",
                                      "procs": 28, "job_id": 7})
                assert ok["ok"] and not dup["ok"]
                assert "duplicate" in dup["error"]
                stats = client.stats()
                assert stats["accepted"] == 1


class TestHttpInterface:
    def test_http_routes(self):
        with live_service() as (master, handle):
            conn = http.client.HTTPConnection(handle.host, handle.port,
                                              timeout=10)
            try:
                body = json.dumps({"program": "MG", "procs": 28})
                conn.request("POST", "/submit", body=body)
                resp = conn.getresponse()
                assert resp.status == 200
                reply = json.loads(resp.read())
                assert reply["ok"] and reply["job_id"] == 0

                conn.request("GET", "/stats")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["accepted"] == 1

                conn.request("GET", "/jobs/0")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["program"] == "MG"

                conn.request("GET", "/nope")
                resp = conn.getresponse()
                assert resp.status == 404
                resp.read()

                conn.request("POST", "/submit",
                             body=json.dumps({"program": "NOPE",
                                              "procs": 28}))
                resp = conn.getresponse()
                assert resp.status == 400
                resp.read()

                conn.request("POST", "/drain")
                resp = conn.getresponse()
                assert resp.status == 200
                summary = json.loads(resp.read())
                assert summary["finished"] == 1
            finally:
                conn.close()

    def test_http_and_lines_share_one_port(self):
        with live_service() as (master, handle):
            with ServiceClient(handle.host, handle.port) as client:
                client.submit(program="WC", procs=28)
            conn = http.client.HTTPConnection(handle.host, handle.port,
                                              timeout=10)
            try:
                conn.request("GET", "/stats")
                resp = conn.getresponse()
                assert json.loads(resp.read())["accepted"] == 1
            finally:
                conn.close()


#: Hostile requests, each with the encoding its reply comes back in.
_DEEP = b"[" * 10000
_HOSTILE = {
    "nested-line": (False, _DEEP + b"\n"),
    "long-line": (False, b'{"op":"' + b"x" * (70 * 1024) + b'"}\n'),
    "length-abc": (True, b"POST /submit HTTP/1.1\r\n"
                         b"Content-Length: abc\r\n\r\n"),
    "length-negative": (True, b"POST /submit HTTP/1.1\r\n"
                              b"Content-Length: -1\r\n\r\n"),
    "nested-body": (True, b"POST /submit HTTP/1.1\r\nContent-Length: "
                          + str(len(_DEEP)).encode() + b"\r\n\r\n" + _DEEP),
}


class TestHostileInput:
    @pytest.mark.parametrize("name", sorted(_HOSTILE))
    def test_bad_request_answers_400_and_service_keeps_serving(self, name):
        is_http, payload = _HOSTILE[name]
        with live_service() as (master, handle):
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10) as sock:
                sock.sendall(payload)
                first = sock.makefile("rb").readline()
            if is_http:
                assert first.split()[1] == b"400"
            else:
                reply = json.loads(first)
                assert reply["error"].startswith("bad request")
                assert protocol.http_status_for(reply)[0] == 400
            with ServiceClient(handle.host, handle.port) as client:
                assert client.ping()["ok"]


#: Run in a fresh interpreter: ``serve``'s construction path, then the
#: first submission and step; prints the ``repro`` modules loaded after
#: each phase.
_COLD_START = """
import json, sys
from repro.cli import build_parser, resolve_sim_setup
from repro.service import SchedulerMaster
from repro.sim.runtime import SchedulerCore

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

args = build_parser().parse_args(["serve", "--nodes", "64", "--port", "0"])
cluster, sim_config, fault_plan, _ = resolve_sim_setup(args)
core = SchedulerCore.from_policy_name(
    args.policy, cluster, sim_config=sim_config, fault_plan=fault_plan)
master = SchedulerMaster(core, queue_limit=args.queue_limit)
built = loaded()
job = master._job_from_request({"program": "MG", "procs": 28})
core.submit(job)
core.step()
print(json.dumps({"built": built, "stepped": loaded(),
                  "placed": job.start_time is not None}))
"""

#: Packages ``serve`` runs none of.
_NOT_SERVED = ("repro.experiments", "repro.workloads", "repro.metrics",
               "repro.obs.export", "repro.obs.invariants")


class TestColdStart:
    """``repro-sns serve`` imports only what it runs (DESIGN.md §12)."""

    @pytest.fixture(scope="class")
    def census(self):
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _COLD_START],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_serve_loads_no_harness_module(self, census):
        served = [m for m in census["built"]
                  if m.startswith(_NOT_SERVED)]
        assert served == []
        # Only the SNS policy's module, and no client.
        assert "repro.scheduling.sns" in census["built"]
        for module in ("repro.scheduling.backfill", "repro.scheduling.ce",
                       "repro.scheduling.online_sns",
                       "repro.profiling.online", "repro.service.client",
                       "repro.obs.telemetry", "repro.obs.timeseries"):
            assert module not in census["built"], module

    def test_first_submit_and_step_import_nothing(self, census):
        """No import is deferred into the submit->place latency."""
        assert census["placed"]
        assert census["stepped"] == census["built"]


class TestProtocol:
    def test_frame_roundtrip(self):
        frame = protocol.encode({"op": "ping", "x": 1.5})
        assert frame.endswith(b"\n")
        assert protocol.decode(frame) == {"op": "ping", "x": 1.5}

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError):
            protocol.decode(b"[1,2,3]\n")
        with pytest.raises(ValueError):
            protocol.decode(b"not json\n")

    def test_route_request(self):
        assert protocol.route_request("GET", "/stats", None) == {
            "op": "stats"}
        assert protocol.route_request("GET", "/jobs/12", None) == {
            "op": "job", "job_id": 12}
        req = protocol.route_request(
            "POST", "/submit", b'{"program":"WC","procs":28}')
        assert req == {"op": "submit", "program": "WC", "procs": 28}
        assert protocol.route_request("GET", "/nope", None) is None
        assert protocol.route_request("DELETE", "/stats", None) is None

    def test_http_status_mapping(self):
        assert protocol.http_status_for({"ok": True})[0] == 200
        assert protocol.http_status_for(
            protocol.error("full", retryable=True))[0] == 503
        assert protocol.http_status_for(protocol.error("bad"))[0] == 400
