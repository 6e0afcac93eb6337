"""Digest pins for the policies the oracle does not transcribe.

The oracle (``tests/oracle``) replays CE, CS and SNS; CE with EASY
backfilling (CE-BF) and SNS with piggybacked online profiling have no
independent reference.  Their decisions-level streams are pinned here
instead, as sha256 digests of the canonical JSONL lines, on a flat
cluster and a 4:1 leaf-spine fabric, each with and without an MTBF
fault plan (node failures, retries and a profile-store outage).  A
digest change means the policy made different decisions, or the
record schema changed.

Each scenario also asserts what it exercises (backfilled starts,
cross-rack placements, trials, co-starters that share nodes within one
scheduling point, evictions), so a pin cannot silently cover nothing.
"""

import collections
import hashlib
import json

import pytest

from repro.config import RetryPolicy, SchedulerConfig, SimConfig, TraceConfig
from repro.faults.plan import FaultPlan, ProfileOutage
from repro.hardware.fabric import FabricSpec
from repro.hardware.topology import ClusterSpec
from repro.obs import decision_stream, trace_lines
from repro.scheduling.backfill import CompactExclusiveBackfillScheduler
from repro.scheduling.online_sns import OnlineSpreadNShareScheduler
from repro.sim.runtime import Simulation
from repro.workloads.sequences import random_sequence

NODES = 16

#: Policy -> (class, workload): jobs of seed 11 submitted ``gap``
#: seconds apart.  CE-BF gets wide jobs so heads block and smaller jobs
#: backfill; online SNS gets few (program, procs) pairs so exploration
#: completes and later jobs co-locate.
SCENARIOS = {
    "CE-BF": (CompactExclusiveBackfillScheduler, dict(
        n_jobs=48, proc_choices=(8, 16, 28, 56, 112, 224),
        program_names=("MG", "CG", "EP", "BFS", "WC", "NW"), gap=20.0)),
    "SNS-online": (OnlineSpreadNShareScheduler, dict(
        n_jobs=96, proc_choices=(16, 28),
        program_names=("MG", "CG", "EP"), gap=25.0)),
}

#: sha256 of each scenario's decisions-level stream (one ``\n``-joined
#: line per record, trailing newline).
DIGESTS = {
    ("CE-BF", "flat", "healthy"):
        "822f1fe0270a5b48bde052efd3010fa0b1d50aeb5676e9882e8026c1898c23e6",
    ("CE-BF", "flat", "faults"):
        "9c1b9bb37dbead1ef9fc31c6b2aed210634bd3e2e93f9cbc8dbdfdd7da2174bc",
    ("CE-BF", "leafspine", "healthy"):
        "328def368019a68b3d275f957e5e651f0fde2b91b1a87ba0632c35e3f1d3a506",
    ("CE-BF", "leafspine", "faults"):
        "8612e76dee9fdde9a1f3da8466b6a520748f79ffd33c0b2781be58d572c2b4b7",
    ("SNS-online", "flat", "healthy"):
        "0469714830c150d9d619fe62c8fe79180fc2b3492def322fb237c8c1a4d37900",
    ("SNS-online", "flat", "faults"):
        "0f0f4931cf53010e7bc2cce33c3c8d36a5bbcc1974d265a1ec064c533bf2141c",
    ("SNS-online", "leafspine", "healthy"):
        "147d6b6846308756813c1d6ba88ce9c672c492fd3c720b84140370aa90b8e46c",
    ("SNS-online", "leafspine", "faults"):
        "c253ce64efb2bba09c0f35d54e4608474a5346660f30591c82460bb57821c76c",
}


def stream(policy: str, fabric: str, faults: str) -> list:
    """The scenario's decisions-level stream as canonical JSONL lines."""
    cls, workload = SCENARIOS[policy]
    workload = dict(workload)
    gap = workload.pop("gap")
    spec = ClusterSpec(
        num_nodes=NODES,
        fabric=FabricSpec(rack_size=4, oversubscription=4.0)
        if fabric == "leafspine" else None,
    )
    jobs = random_sequence(seed=11, **workload)
    for i, job in enumerate(jobs):
        job.submit_time = gap * i
    plan = None
    if faults == "faults":
        plan = FaultPlan.from_mtbf(
            seed=4, num_nodes=NODES, mtbf_s=8000.0, mttr_s=150.0,
            horizon_s=3000.0,
            retry=RetryPolicy(max_retries=2, backoff_s=20.0),
            profile_outages=(ProfileOutage(300.0, 600.0),),
        )
    config = SchedulerConfig(manage_network=fabric == "leafspine")
    result = Simulation(
        spec, cls(spec, config), jobs,
        SimConfig(trace=TraceConfig(level="decisions")), fault_plan=plan,
    ).run()
    return list(trace_lines(decision_stream(result.trace.events)))


def _exercised(policy: str, fabric: str, faults: str, records) -> None:
    starts = [r for r in records if r["ev"] == "start"]
    if faults == "faults":
        assert any(r["ev"] == "evict" for r in records)
    if fabric == "leafspine":
        assert any("xfrac" in r for r in starts)
    if policy == "CE-BF":
        order = [r["job"] for r in starts]
        # A backfilled job starts before a lower-id job it overtook.
        assert any(b < a for a, b in zip(order, order[1:]))
        return
    assert any(r["trial"] for r in starts)
    by_point = collections.defaultdict(list)
    for r in starts:
        by_point[r["t"]].append(r)
    # Some start shares nodes with an earlier start of the same point:
    # its partners name a co-starter.
    assert any(
        set(r["partners"]) & {s["job"] for s in point[:i]}
        for point in by_point.values() for i, r in enumerate(point)
    )


@pytest.mark.parametrize("faults", ["healthy", "faults"])
@pytest.mark.parametrize("fabric", ["flat", "leafspine"])
@pytest.mark.parametrize("policy", sorted(SCENARIOS))
def test_decision_stream_pinned(policy, fabric, faults):
    lines = stream(policy, fabric, faults)
    _exercised(policy, fabric, faults, [json.loads(line) for line in lines])
    digest = hashlib.sha256(
        ("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == DIGESTS[policy, fabric, faults]
