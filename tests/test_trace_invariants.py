"""Trace conservation laws (DESIGN.md §10).

Every trace the runtime emits must replay cleanly through
:func:`repro.obs.check_trace` — and, just as importantly, the checker
must actually *catch* broken traces: each mutation test corrupts one
law in an otherwise clean stream and expects a violation.
"""

import copy

import pytest

from repro.config import RetryPolicy, SimConfig, TraceConfig
from repro.errors import SimulationError
from repro.experiments.common import run_policy
from repro.faults.plan import FaultPlan
from repro.hardware.topology import ClusterSpec
from repro.obs import check_trace, verify_trace
from repro.obs.trace import DECISION_KINDS
from repro.scheduling.online_sns import OnlineSpreadNShareScheduler
from repro.sim.runtime import Simulation
from repro.workloads.sequences import random_sequence
from tests.against_oracle import assert_matches_oracle, fast_core

NODES = 8


def _plan(faults):
    # Dense enough that several faults land inside the ~800 s makespan
    # (evict / requeue / job_failed records all appear).
    return FaultPlan.from_mtbf(
        seed=3, num_nodes=NODES, mtbf_s=500.0, mttr_s=120.0,
        horizon_s=1_500.0,
        retry=RetryPolicy(max_retries=3, backoff_s=60.0),
    ) if faults else None


def traced_run(policy="SNS", faults=False, level="full", n_jobs=16,
               seed=3):
    cluster = ClusterSpec(num_nodes=NODES)
    jobs = random_sequence(seed=seed, n_jobs=n_jobs)
    result = run_policy(
        policy, cluster, jobs,
        sim_config=SimConfig(trace=TraceConfig(level=level)),
        fault_plan=_plan(faults),
    )
    return result.trace.events


def oracle_checked(policy):
    """The faulty scenario of :func:`traced_run` on the fast path, with
    the oracle's replay of it: equal decisions, bit-equal speeds."""
    return assert_matches_oracle(fast_core(
        policy, ClusterSpec(num_nodes=NODES),
        random_sequence(seed=3, n_jobs=16), fault_plan=_plan(True)))


class TestCleanTraces:
    @pytest.mark.parametrize("policy", ["CE", "CE-BF", "CS", "SNS"])
    def test_every_policy_replays_clean(self, policy):
        assert check_trace(traced_run(policy)) == []

    @pytest.mark.parametrize("policy", ["CE", "CS", "SNS"])
    def test_fault_runs_replay_clean(self, policy):
        events = traced_run(policy, faults=True)
        kinds = {e["ev"] for e in events}
        assert "node_fail" in kinds  # the plan actually injected
        assert check_trace(events) == []

    def test_reference_kernels_replay_clean(self):
        """The oracle's own decision records pass every law too."""
        _, oracle = oracle_checked("SNS")
        assert check_trace(oracle.records) == []

    @pytest.mark.parametrize("policy", ["CE", "CS", "SNS"])
    def test_full_trace_is_cache_mode_independent(self, policy):
        """The full trace's decisions replay on the unmemoized oracle,
        and its ``speed`` records are bit-equal to the oracle's and name
        exactly each refresh's jobs; a run traced at the full level is
        the run traced at the decisions level."""
        result, _ = oracle_checked(policy)
        assert [e for e in result.trace.events
                if e["ev"] in DECISION_KINDS] == \
            traced_run(policy, faults=True, level="decisions")

    def test_online_sns_replays_clean_with_trials(self):
        cluster = ClusterSpec(num_nodes=NODES)
        result = Simulation(
            cluster, OnlineSpreadNShareScheduler(cluster),
            random_sequence(seed=5, n_jobs=12),
            SimConfig(trace=TraceConfig(level="decisions")),
        ).run()
        events = result.trace.events
        assert any(e["trial"] for e in events if e["ev"] == "start")
        assert check_trace(events) == []


@pytest.fixture(scope="module")
def clean():
    """One clean fault-run trace shared by the mutation tests."""
    return traced_run("SNS", faults=True)


def first(events, kind, **match):
    for event in events:
        if event["ev"] == kind \
                and all(event.get(k) == v for k, v in match.items()):
            return event
    raise AssertionError(f"no {kind} record in trace")


class TestMutationsAreCaught:
    """Corrupt one law at a time; the checker must object."""

    def corrupt(self, clean, fn):
        events = copy.deepcopy(clean)
        fn(events)
        errors = check_trace(events)
        assert errors, "corruption went undetected"
        return errors

    def test_missing_meta(self, clean):
        errors = check_trace(clean[1:])
        assert errors == ["trace must begin with a meta record"]

    def test_tampered_wait(self, clean):
        errors = self.corrupt(
            clean, lambda ev: first(ev, "start").update(wait=1e9))
        assert any("wait" in e for e in errors)

    def test_dropped_finish(self, clean):
        def drop(events):
            events.remove(first(events, "finish"))
        errors = self.corrupt(clean, drop)
        assert any("still running" in e for e in errors)

    def test_tampered_goodput(self, clean):
        errors = self.corrupt(
            clean, lambda ev: first(ev, "finish").update(node_s=0.5))
        assert any("node_s" in e for e in errors)

    def test_tampered_badput(self, clean):
        errors = self.corrupt(
            clean,
            lambda ev: first(ev, "evict").update(lost_node_s=123.0))
        assert any("lost_node_s" in e for e in errors)

    def test_duplicate_start(self, clean):
        def dup(events):
            start = first(events, "start")
            events.insert(events.index(start) + 1, dict(start))
        errors = self.corrupt(clean, dup)
        assert any("started" in e for e in errors)

    def test_start_on_out_of_range_node(self, clean):
        def wreck(events):
            first(events, "start")["nodes"][0] = NODES + 7
        errors = self.corrupt(clean, wreck)
        assert any("out of range" in e for e in errors)

    def test_overbooked_bandwidth(self, clean):
        errors = self.corrupt(
            clean, lambda ev: first(ev, "start").update(bw=1e6))
        assert any("peak bandwidth" in e for e in errors)

    def test_overbooked_ways(self, clean):
        errors = self.corrupt(
            clean, lambda ev: first(ev, "start").update(ways=1000))
        assert any("way capacity" in e for e in errors)

    def test_broken_requeue_promise(self, clean):
        errors = self.corrupt(
            clean,
            lambda ev: first(ev, "evict").update(requeue_at=1e12))
        assert any("requeue" in e or "resubmit" in e for e in errors)

    def test_evict_without_fault(self, clean):
        def orphan(events):
            evict = first(events, "evict")
            fail = first(events, "node_fail", node=evict["node"])
            events.remove(fail)
        errors = self.corrupt(clean, orphan)
        assert any("node_fail" in e for e in errors)

    def test_backwards_timestamp(self, clean):
        def rewind(events):
            first(events, "finish")["t"] = -1.0
        errors = self.corrupt(clean, rewind)
        assert any("backwards" in e for e in errors)

    def test_verify_trace_raises_with_label(self, clean):
        events = copy.deepcopy(clean)
        first(events, "start").update(wait=1e9)
        with pytest.raises(SimulationError, match="mutant.*invariant"):
            verify_trace(events, label="mutant")

    def test_verify_trace_clean_is_silent(self, clean):
        verify_trace(clean, label="clean")
