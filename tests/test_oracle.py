"""The fast path against the independent oracle (``tests/oracle``).

A Hypothesis property replays random workloads under CE, CS and SNS on
flat and leaf-spine clusters, with locality-aware spreading on and off
and with and without fault plans, and requires byte-identical
decisions-level traces and bit-equal ``speed`` records.  The seeded
scenarios the fast path used to be compared against its in-tree
reference mode on live in their own suites (fig14-style sequences and
the fig20 smoke point in ``test_perf_equivalence.py``, same-instant
events in ``test_coalescing.py``, fault runs in ``test_faults.py``, the
golden trace); this file adds a fixed fabric-plus-faults plan, checks
that the oracle's own checks are live, and that it imports nothing of
the fast path.
"""

from __future__ import annotations

import ast
import copy
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.catalog import get_program
from repro.config import RetryPolicy, SchedulerConfig
from repro.faults.plan import FaultPlan, ProfileOutage
from repro.hardware.fabric import FabricSpec
from repro.hardware.topology import ClusterSpec
from repro.sim.job import Job
from repro.workloads.sequences import random_sequence
from tests.against_oracle import (
    assert_matches_oracle,
    compare,
    decision_lines,
    fast_core,
)
from tests.oracle import first_divergence, run_oracle

ORACLE_DIR = Path(__file__).parent / "oracle"

#: Fast-path modules the oracle must not import.
FORBIDDEN = {
    "repro.sim.cluster", "repro.sim.node", "repro.sim.runtime",
    "repro.sim.running", "repro.sim.engine",
    "repro.scheduling.base", "repro.scheduling.placement",
    "repro.scheduling.ce", "repro.scheduling.cs", "repro.scheduling.sns",
    "repro.scheduling.backfill",
    "repro.perfmodel.batch",
}

#: Programs that may span any number of nodes, and the single-node
#: frameworks (which must fit one node).
SPREADING = ("MG", "CG", "EP", "LU", "BFS", "WC", "TS", "NW")
ONE_NODE = ("GAN", "RNN", "HC", "BW")


def test_oracle_imports_nothing_of_the_fast_path():
    imported = set()
    for path in sorted(ORACLE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}"
                                for alias in node.names)
    assert len(list(ORACLE_DIR.glob("*.py"))) >= 3
    assert not imported & FORBIDDEN, sorted(imported & FORBIDDEN)


@st.composite
def _jobs(draw, cores: int, num_nodes: int):
    jobs, t = [], 0.0
    for i in range(draw(st.integers(3, 18), label="jobs")):
        if draw(st.integers(0, 4), label="one-node") == 0:
            program = draw(st.sampled_from(ONE_NODE))
            procs = draw(st.sampled_from([1, 4, 8, 14, cores]))
        else:
            program = draw(st.sampled_from(SPREADING))
            procs = draw(st.sampled_from(
                [2, 8, 14, 16, cores, 2 * cores, 3 * cores]))
        procs = min(procs, num_nodes * cores)
        t += draw(st.sampled_from([0.0, 0.0, 5.0, 60.0, 400.0]))
        jobs.append(Job(
            job_id=i, program=get_program(program), procs=procs,
            submit_time=t,
            alpha=draw(st.sampled_from([None, None, 0.7, 1.0])),
            work_multiplier=draw(st.sampled_from([0.2, 1.0, 1.0, 3.0])),
        ))
    return jobs


@pytest.mark.parametrize("faults", [False, True], ids=["healthy", "faults"])
@pytest.mark.parametrize("locality", [False, True],
                         ids=["plain", "locality"])
@pytest.mark.parametrize("fabric", [False, True], ids=["flat", "leafspine"])
@pytest.mark.parametrize("policy", ["CE", "CS", "SNS"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_fast_path_matches_oracle(policy, fabric, locality, faults, data):
    num_nodes = data.draw(st.sampled_from([3, 5, 8, 12]), label="nodes")
    spec = ClusterSpec(
        num_nodes=num_nodes,
        fabric=FabricSpec(rack_size=data.draw(st.sampled_from([2, 3])),
                          oversubscription=4.0) if fabric else None,
    )
    jobs = data.draw(_jobs(spec.node.cores, num_nodes), label="workload")
    plan = None
    if faults:
        horizon = max(j.submit_time for j in jobs) + 600.0
        plan = FaultPlan.from_mtbf(
            seed=data.draw(st.integers(0, 2**16), label="fault seed"),
            num_nodes=num_nodes, mtbf_s=horizon * num_nodes / 3.0,
            mttr_s=100.0, horizon_s=horizon,
            retry=RetryPolicy(max_retries=data.draw(st.integers(0, 2)),
                              backoff_s=30.0),
            profile_outages=(ProfileOutage(50.0, 250.0),)
            if data.draw(st.booleans(), label="outage") else (),
        )
    sns = policy == "SNS"
    config = SchedulerConfig(
        locality_aware=locality,
        manage_network=sns and data.draw(st.booleans(), label="network"),
        enforce_bw=sns and data.draw(st.booleans(), label="mba"),
        share_residual=not sns or data.draw(st.booleans(), label="share"),
        bw_headroom=data.draw(st.sampled_from([1.0, 0.8]), label="headroom"),
    )
    assert_matches_oracle(fast_core(policy, spec, jobs, config, plan))


def _fabric_faults_core(policy: str, locality: bool = False):
    """A leaf-spine cluster (racks of 4 at 4:1) under seeded MTBF
    failures and a profile-store outage."""
    spec = ClusterSpec(num_nodes=16,
                       fabric=FabricSpec(rack_size=4, oversubscription=4.0))
    jobs = random_sequence(seed=17, n_jobs=32, proc_choices=(8, 16, 28, 56),
                           program_names=SPREADING)
    plan = FaultPlan.from_mtbf(
        seed=4, num_nodes=16, mtbf_s=6000.0, mttr_s=150.0, horizon_s=3000.0,
        retry=RetryPolicy(max_retries=2, backoff_s=20.0),
        profile_outages=(ProfileOutage(200.0, 500.0),),
    )
    config = SchedulerConfig(locality_aware=locality,
                             manage_network=policy == "SNS")
    return fast_core(policy, spec, jobs, config, plan)


@pytest.mark.parametrize("policy,locality", [
    ("CE", False), ("CS", True), ("SNS", False), ("SNS", True),
])
def test_fabric_faults_plan(policy, locality):
    result, _ = assert_matches_oracle(_fabric_faults_core(policy, locality))
    events = result.trace.events
    assert {"evict", "node_recover", "links"} <= {e["ev"] for e in events}
    assert any("xfrac" in e for e in events if e["ev"] == "start")


def test_first_divergence_names_record_time_and_job():
    fast = ['{"ev":"submit","t":0.0,"job":1}',
            '{"ev":"start","t":0.0,"job":1,"nodes":[0]}']
    oracle = [fast[0], '{"ev":"start","t":0.0,"job":1,"nodes":[1]}']
    report = first_divergence(fast, oracle)
    assert report.startswith("record 1 (t=0.0, job=1):")
    assert fast[1] in report and oracle[1] in report
    assert first_divergence(fast, fast) is None
    assert "only the fast path goes on" in first_divergence(fast,
                                                            fast[:1])


def test_oracle_checks_every_speed_and_refresh_set():
    """One speed record off by one ulp, or one dropped, is reported
    with the step, time and job."""
    core = _fabric_faults_core("SNS")
    report, result, oracle = compare(core)
    assert report is None, report
    events = result.trace.events
    spec, config, plan = core.cluster.spec, core.policy.config, \
        core.fault_plan
    jobs = list(core.jobs.values())

    nudged = copy.deepcopy(events)
    speed = next(e for e in nudged if e["ev"] == "speed")
    speed["speed"] = math.nextafter(speed["speed"], math.inf)
    run = run_oracle("SNS", spec, jobs, config, plan, nudged)
    assert decision_lines(run.records) == decision_lines(events)
    (mismatch,) = run.mismatches
    assert (mismatch.job, mismatch.t) == (speed["job"], speed["t"])
    assert "speed" in str(mismatch)

    dropped = [e for e in events if e is not next(
        e for e in events if e["ev"] == "speed")]
    run = run_oracle("SNS", spec, jobs, config, plan, dropped)
    assert run.mismatches and "refresh set" in str(run.mismatches[0])
