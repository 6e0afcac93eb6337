"""Run a scenario on the fast path and on the oracle, and compare.

The fast path runs with a ``full``-level tracer: its decisions-level
records are what the oracle must reproduce byte for byte, and its
``speed`` records supply the one order the oracle takes as input (see
:mod:`tests.oracle.sim`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.config import SchedulerConfig, SimConfig, TraceConfig
from repro.errors import SimulationError
from repro.obs import decision_stream, trace_lines
from repro.obs.trace import TraceLevel
from repro.sim.runtime import SchedulerCore, SimulationResult
from tests.oracle import POLICY_NAMES, OracleRun, divergence_report, \
    run_oracle

#: Policy class name -> the oracle's policy name.
_POLICY_OF = {cls: name for name, cls in POLICY_NAMES.items()}

#: Runs with a full trace and room for long trace replays.
FULL = SimConfig(max_sim_time=1e12, trace=TraceConfig(level="full"))


def fast_core(policy: str, cluster, jobs: Sequence, config:
              SchedulerConfig = SchedulerConfig(),
              fault_plan=None) -> SchedulerCore:
    """A fast-path core over ``jobs`` with a full-level tracer."""
    return SchedulerCore.from_policy_name(
        policy, cluster, jobs, scheduler_config=config, sim_config=FULL,
        fault_plan=fault_plan,
    )


def decision_lines(events) -> list:
    return list(trace_lines(decision_stream(events)))


def oracle_of(core: SchedulerCore) -> OracleRun:
    """The oracle's replay of ``core``'s scenario: its cluster, policy
    and config, fault plan and jobs (inputs only), checked against the
    refresh orders and speeds of its full trace."""
    assert core.tracer is not None and core.tracer.level is TraceLevel.FULL
    return run_oracle(
        _POLICY_OF[type(core.policy).__name__], core.cluster.spec,
        list(core.jobs.values()), core.policy.config, core.fault_plan,
        core.tracer.events,
    )


def compare(core: SchedulerCore
            ) -> Tuple[Optional[str], SimulationResult, OracleRun]:
    """Run ``core`` to the end (from wherever it is), replay its
    scenario on the oracle, and return the divergence report (``None``
    when they agree), the fast result and the oracle run.  A workload
    that can never finish must stall both: the fast path raises its
    liveness error where the oracle stops with jobs stuck."""
    try:
        result, error = core.run(), None
    except SimulationError as exc:
        result, error = core.peek_result(), exc
    oracle = oracle_of(core)
    report = divergence_report(decision_lines(result.trace.events),
                               decision_lines(oracle.records),
                               oracle.mismatches)
    if report is None and bool(error) != bool(oracle.stuck):
        fast = f"raised {error!r}" if error else "ran to the end"
        stalled = f"stalled with jobs {oracle.stuck}" if oracle.stuck \
            else "drained"
        report = f"the fast path {fast}, the oracle {stalled}"
    return report, result, oracle


def assert_matches_oracle(core: SchedulerCore
                          ) -> Tuple[SimulationResult, OracleRun]:
    """:func:`compare`, failing with the divergence report."""
    report, result, oracle = compare(core)
    assert report is None, report
    return result, oracle
