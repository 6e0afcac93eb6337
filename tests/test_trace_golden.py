"""Golden-trace regression (DESIGN.md §10).

The decisions-level trace of a seeded run is **byte-stable**: the
canonical JSONL lines must be identical under the fast path, the
unmemoized oracle (``tests/oracle``), interleaved stepping, and —
because decision records are level-independent — inside higher-level
traces.  ``tests/data/golden_trace_sns.jsonl`` pins the stream of one
seeded 4-node / 8-job SNS run; any diff against it means the scheduler
made different decisions (or the record schema changed).

Regenerate after an *intentional* schema or policy change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_trace_golden.py
"""

import os
from pathlib import Path

import pytest

from repro.config import SimConfig, TraceConfig
from repro.experiments.common import run_policy
from repro.hardware.topology import ClusterSpec
from repro.obs import decision_stream, read_jsonl, trace_lines, verify_trace
from repro.sim.runtime import Simulation
from repro.workloads.sequences import random_sequence
from tests.against_oracle import assert_matches_oracle, decision_lines, \
    fast_core
from tests.oracle import first_divergence

GOLDEN = Path(__file__).parent / "data" / "golden_trace_sns.jsonl"

#: The pinned scenario: SNS on 4 nodes, 8 seeded jobs.
SEED, N_JOBS, NODES = 7, 8, 4


def stream_lines(result):
    """A run's decisions-level stream as canonical JSONL lines."""
    return list(trace_lines(decision_stream(result.trace.events)))


def assert_golden(lines, committed):
    """``lines`` equal the committed stream; a failure names the first
    differing record."""
    report = first_divergence(lines, committed)
    assert report is None, report


def golden_lines(level="decisions"):
    """The scenario's decisions-level stream as canonical JSONL lines."""
    return stream_lines(run_policy(
        "SNS",
        ClusterSpec(num_nodes=NODES),
        random_sequence(seed=SEED, n_jobs=N_JOBS),
        sim_config=SimConfig(trace=TraceConfig(level=level)),
    ))


@pytest.fixture(scope="module")
def committed():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text("\n".join(golden_lines()) + "\n")
    assert GOLDEN.exists(), \
        "golden trace missing; regenerate with REPRO_REGEN_GOLDEN=1"
    return GOLDEN.read_text().splitlines()


class TestGoldenTrace:
    def test_matches_committed_reference(self, committed):
        assert_golden(golden_lines(), committed)

    def test_byte_stable_without_caches(self, committed):
        """The unmemoized oracle replays the same decisions, and the
        fast path's speeds bit for bit."""
        _, oracle = assert_matches_oracle(fast_core(
            "SNS", ClusterSpec(num_nodes=NODES),
            random_sequence(seed=SEED, n_jobs=N_JOBS)))
        assert_golden(decision_lines(oracle.records), committed)

    def test_decision_stream_level_independent(self, committed):
        """events/full-level traces embed the identical decision
        stream — the extra record kinds never perturb it."""
        assert_golden(golden_lines(level="events"), committed)
        assert_golden(golden_lines(level="full"), committed)

    def test_byte_stable_under_interleaved_stepping(self, committed):
        """Four copies stepped alternately in one thread, one event
        batch each per round, each reproduce the committed stream
        (per-simulation tracer + perf context: no shared observability
        state to leak between them)."""
        sims = [
            Simulation.from_policy_name(
                "SNS", ClusterSpec(num_nodes=NODES),
                random_sequence(seed=SEED, n_jobs=N_JOBS),
                sim_config=SimConfig(trace=TraceConfig(level="decisions")),
            )
            for _ in range(4)
        ]
        for sim in sims:
            sim.start()
        live = list(sims)
        while live:
            live = [sim for sim in live if sim.step()]
        for sim in sims:
            assert_golden(stream_lines(sim.finalize()), committed)

    def test_golden_file_is_replayable(self, committed):
        """The committed artifact itself parses and passes every
        conservation law — golden files rot when nobody reads them."""
        events = read_jsonl(str(GOLDEN))
        assert len(events) == len(committed)
        verify_trace(events, label="golden")
        kinds = {e["ev"] for e in events}
        assert {"meta", "submit", "start", "finish"} <= kinds
