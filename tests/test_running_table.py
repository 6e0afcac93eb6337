"""The running-job table (DESIGN.md §7): its elementwise expressions are
bit-identical to the scalar ``job_time`` / ``Job.settle_progress`` /
``Job.projected_finish``, and its rows track the running set exactly
through starts, finishes, evictions and restarts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.catalog import PROGRAMS
from repro.config import RetryPolicy, SimConfig, TraceConfig
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.hardware.fabric import FabricSpec
from repro.hardware.node_spec import reference_node
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.execution import (
    NodeConditions,
    job_time,
    process_rate,
    reference_time,
    scale_factor_of,
)
from repro.sim.job import Job, JobState, Placement
from repro.sim.runtime import SchedulerCore
from repro.sim.running import (
    COMPUTE,
    LAST,
    REMAINING,
    ROUTE,
    SPEED,
    T_REF,
    RunningTable,
    time_now,
    time_parts,
)
from repro.workloads.sequences import random_sequence

SPEC = reference_node()

#: Loads with the ties the expressions must break like the scalar code:
#: exactly 1.0 (no stretch), 0.0 (flat route) and equal node/route loads.
LOADS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]) | st.floats(0.0, 4.0)

KEY = st.tuples(
    st.integers(1, SPEC.cores),                        # procs on the node
    st.sampled_from([0.5, 1.0, 2.5, 7.0, float(SPEC.llc_ways)])
    | st.floats(0.25, float(SPEC.llc_ways)),           # effective ways
    st.floats(0.5, SPEC.peak_bw),                      # granted GB/s
    LOADS,                                             # node net load
)


@st.composite
def jobs_with_keys(draw):
    """A program, its distinct condition keys with node counts, and a
    route load that sometimes ties the largest node load."""
    program = draw(st.sampled_from(sorted(PROGRAMS.values(),
                                          key=lambda p: p.name)))
    keys = draw(st.lists(KEY, min_size=1, max_size=4,
                         unique_by=lambda k: k))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(keys),
                           max_size=len(keys)))
    node_cong = max(k[3] for k in keys)
    route = draw(st.sampled_from([0.0, 1.0, node_cong]) | LOADS)
    return program, keys, counts, route


def _conditions(keys, counts):
    ways_to_mb = SPEC.cache.ways_to_mb
    return [NodeConditions(p, ways_to_mb(eff) / p, grant, net_load=net)
            for (p, eff, grant, net), c in zip(keys, counts)
            for _ in range(c)]


@settings(max_examples=150, deadline=None)
@given(st.lists(jobs_with_keys(), min_size=1, max_size=6))
def test_time_now_matches_job_time(drawn):
    table = RunningTable()
    expected = []
    for jid, (program, keys, counts, route) in enumerate(drawn):
        n_nodes = sum(counts)
        assume(program.max_nodes is None or n_nodes <= program.max_nodes)
        procs = sum(k[0] * c for k, c in zip(keys, counts))
        t_ref = reference_time(program, procs, SPEC)
        table.add(jid, t_ref, 1.0, 0.0)
        slot = table.slot[jid]
        table.rows[slot, COMPUTE:ROUTE] = time_parts(
            SPEC, program, procs, n_nodes, t_ref, dict.fromkeys(keys)
        )
        table.rows[slot, ROUTE] = route
        expected.append(job_time(program, procs, _conditions(keys, counts),
                                 SPEC, route_load=route))
    rows = table.rows[[table.slot[j] for j in range(len(drawn))]]
    got = time_now(*rows[:, COMPUTE:ROUTE + 1].T)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]


def _running_job(remaining, speed, last):
    job = Job(job_id=0, program=PROGRAMS["MG"], procs=1)
    job.begin(0.0, 1.0, Placement([0], [1], 0, 0.0), 1)
    job.remaining_work, job.speed, job.last_progress_update = \
        remaining, speed, last
    return job


PROGRESS = st.tuples(
    st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e6),   # remaining
    st.sampled_from([0.0]) | st.floats(1e-3, 1e3),        # old speed
    st.floats(0.0, 1e5),                                  # last
    st.floats(1e-3, 1e6),                                 # t_ref
    st.floats(1e-3, 1e6),                                 # t_now
)


@settings(max_examples=300, deadline=None)
@given(st.lists(PROGRESS, min_size=1, max_size=8),
       st.floats(0.0, 1e5), st.booleans())
def test_retime_matches_settle_and_projected_finish(rows, step, cancel):
    """Settle at the old speed, new speed, finish: the scalar sequence
    ``settle_progress`` / ``set_speed`` / ``projected_finish``."""
    table = RunningTable()
    now = max(row[2] for row in rows) + step
    jobs = []
    for jid, (remaining, speed, last, t_ref, _) in enumerate(rows):
        if cancel:
            # Work that the step consumes exactly: x cancels to +/-0.0.
            remaining = speed * (now - last)
        table.add(jid, t_ref, remaining, last)
        table.rows[table.slot[jid], SPEED] = speed
        jobs.append(_running_job(remaining, speed, last))
    slots = [table.slot[j] for j in range(len(rows))]
    speeds, finishes = table.retime(slots, list(range(len(rows))), now,
                                    np.array([row[4] for row in rows]))
    for jid, (job, row) in enumerate(zip(jobs, rows)):
        job.settle_progress(now)
        job.set_speed(row[3] / row[4])
        got = table.rows[table.slot[jid]]
        assert float(got[REMAINING]).hex() == job.remaining_work.hex()
        assert float(got[LAST]).hex() == job.last_progress_update.hex()
        assert float(got[SPEED]).hex() == speeds[jid].hex() \
            == job.speed.hex()
        assert finishes[jid].hex() == job.projected_finish().hex()


def test_scalar_messages_for_batch_offenders():
    table = RunningTable()
    for jid in (4, 7, 9):
        table.add(jid, 1.0, 1.0, 10.0)
    slots = [table.slot[j] for j in (4, 7, 9)]
    with pytest.raises(SimulationError, match="job 7 computed non-positive"):
        table.retime(slots, [4, 7, 9], 10.0, np.array([1.0, -1.0, -2.0]))
    with pytest.raises(SimulationError, match="time went backwards"):
        table.retime(slots, [4, 7, 9], 9.0, np.array([1.0, 1.0, 1.0]))
    assert table.rows[slots, SPEED:].tolist() == [[0.0, 10.0, 1.0]] * 3


def test_release_writes_back_and_reuses_the_slot():
    table = RunningTable()
    for jid in range(100):       # past the initial capacity
        table.add(jid, 1.0, 5.0, 0.0)
    table.rows[table.slot[42], SPEED:] = (0.5, 3.0, 2.5)
    job = _running_job(0.0, 0.0, 0.0)
    job.job_id = 42
    slot = table.slot[42]
    table.release(job)
    assert (job.speed, job.last_progress_update, job.remaining_work) \
        == (0.5, 3.0, 2.5)
    table.add(100, 2.0, 7.0, 4.0)
    assert table.slot[100] == slot
    assert table.rows[slot].tolist() == [2.0, 0, 0, 0, 0, 0, 4.0, 7.0]


# -- slot lifecycle on a small faulty fabric ----------------------------

NUM_NODES = 64
CLUSTER = ClusterSpec(num_nodes=NUM_NODES,
                      fabric=FabricSpec(rack_size=8, oversubscription=4.0))


def _core(policy: str, caches: bool) -> SchedulerCore:
    jobs = random_sequence(seed=3, n_jobs=48, proc_choices=(28, 56, 112),
                           program_names=("MG", "CG", "LU", "BFS", "WC",
                                          "TS", "NW", "EP"))
    plan = FaultPlan.from_mtbf(
        seed=5, num_nodes=NUM_NODES, mtbf_s=2000.0, mttr_s=120.0,
        horizon_s=3000.0, retry=RetryPolicy(max_retries=4, backoff_s=30.0),
    )
    return SchedulerCore.from_policy_name(
        policy, CLUSTER, jobs, fault_plan=plan,
        sim_config=SimConfig(perf_caches=caches,
                             trace=TraceConfig(level="decisions")),
    )


def _fresh_routes(core: SchedulerCore) -> dict:
    cross = core._cross_jobs
    jids = sorted(cross)
    _, _, route = core._fabric.link_utilization(
        NUM_NODES, [cross[j][0] for j in jids], [cross[j][1] for j in jids]
    )
    return dict(zip(jids, route.tolist()))


def _check_rows(core: SchedulerCore) -> None:
    """Live rows are the running set, one slot each, and every row
    equals a fresh scalar rebuild from the reference arbitration (the
    reference mode builds no time parts: only t_ref, route and speed)."""
    table = core._table
    running = {jid for jid, job in core.jobs.items()
               if job.state is JobState.RUNNING}
    assert set(table.slot) == running
    live = set(table.slot.values())
    assert len(live) == len(running)
    assert live.isdisjoint(table._free)
    routes = _fresh_routes(core)
    ways_to_mb = SPEC.cache.ways_to_mb
    for jid, slot in table.slot.items():
        job = core.jobs[jid]
        program, procs = job.program, job.procs
        conds = []
        for nid, p in zip(job.placement.node_ids,
                          job.placement.procs.tolist()):
            view = core.cluster._arbitrate(nid)
            i = view[0].index(jid)
            conds.append(NodeConditions(p, ways_to_mb(view[3][i]) / p,
                                        view[1][i], net_load=view[2]))
        n = len(conds)
        t_ref = reference_time(program, procs, SPEC)
        slowest = min(process_rate(program, c, n) for c in set(conds))
        k = scale_factor_of(n, procs, SPEC)
        route = routes.get(jid, 0.0)
        expected = [t_ref, program.instr_per_proc(procs) / slowest,
                    t_ref * program.comm.comm_fraction(k, n),
                    max(c.net_load for c in conds), route,
                    t_ref / job_time(program, procs, conds, SPEC,
                                     route_load=route)]
        if not core.ctx.enabled:
            expected = [expected[T_REF], expected[ROUTE], expected[SPEED]]
            assert table.rows[slot, [T_REF, ROUTE, SPEED]].tolist() \
                == expected, jid
        else:
            assert table.rows[slot, :SPEED + 1].tolist() == expected, jid


def _outcome(core: SchedulerCore):
    result = core.finalize()
    return (
        result.makespan,
        [(j.job_id, j.state, j.start_time, j.finish_time, j.retries,
          j.speed, j.last_progress_update, j.remaining_work, j.lost_work,
          j.lost_node_seconds) for j in result.jobs],
        core.tracer.decision_stream(),
    )


@pytest.mark.parametrize("policy", ["CE", "SNS"])
def test_slot_lifecycle_under_faults(policy):
    core = _core(policy, caches=True)
    jobs_per_slot: dict = {}
    while core.step():
        _check_rows(core)
        for jid, slot in core._table.slot.items():
            jobs_per_slot.setdefault(slot, set()).add(jid)
    reference = _core(policy, caches=False)
    while reference.step():
        _check_rows(reference)
    counters = core._collect_counters()
    assert counters["job_evictions"] > 0 and counters["job_retries"] > 0
    assert any(len(j) > 1 for j in jobs_per_slot.values())
    assert not core._table.slot
    assert _outcome(core) == _outcome(reference)
