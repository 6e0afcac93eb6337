"""The running-job table (DESIGN.md §7): its per-row expressions are
bit-identical to the scalar ``job_time`` / ``Job.settle_progress`` /
``Job.projected_finish``, its entries are builtin floats, and its rows
track the running set exactly through starts, finishes, evictions and
restarts."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.catalog import PROGRAMS
from repro.config import RetryPolicy
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.hardware.fabric import FabricSpec
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.execution import (
    NodeConditions,
    job_time,
    process_rate,
    reference_time,
    scale_factor_of,
)
from repro.sim.job import Job, JobState, Placement
from repro.sim.node import MixTable
from repro.sim.runtime import SchedulerCore
from repro.sim.running import (
    COMPUTE,
    LAST,
    REMAINING,
    ROUTE,
    SPEED,
    RunningTable,
    time_now,
    time_parts,
)
from repro.workloads.sequences import random_sequence
from tests.against_oracle import assert_matches_oracle, fast_core
from tests.oracle import bookings_from_meta, node_view

SPEC = NodeSpec()

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
        row = table.rows[jid]
        conds = _conditions(keys, counts)
        slowest = min(process_rate(program, c, n_nodes) for c in conds)
        row[COMPUTE:ROUTE] = (
            *time_parts(SPEC, program, procs, n_nodes, t_ref, slowest),
            max(c.net_load for c in conds),
        )
        row[ROUTE] = route
        expected.append(job_time(program, procs, conds, SPEC,
                                 route_load=route))
    got = [time_now(*table.rows[j][COMPUTE:ROUTE + 1])
           for j in range(len(drawn))]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


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
    for jid, (remaining, speed, last, t_ref, t_now) in enumerate(rows):
        if cancel:
            # Work that the step consumes exactly: x cancels to +/-0.0.
            remaining = speed * (now - last)
        table.add(jid, t_ref, remaining, last)
        # time_now of these parts is t_now + 0.0, which is exact.
        table.rows[jid][COMPUTE:SPEED + 1] = (t_now, 0.0, 0.0, 0.0, speed)
        jobs.append(_running_job(remaining, speed, last))
    batch = [table.rows[j] for j in range(len(rows))]
    speeds, finishes = table.retime(batch, list(range(len(rows))), now)
    for jid, (job, row) in enumerate(zip(jobs, rows)):
        job.settle_progress(now)
        job.set_speed(row[3] / row[4])
        got = table.rows[jid]
        assert got[REMAINING].hex() == job.remaining_work.hex()
        assert got[LAST].hex() == job.last_progress_update.hex()
        assert got[SPEED].hex() == speeds[jid].hex() == job.speed.hex()
        assert finishes[jid].hex() == job.projected_finish().hex()


def test_scalar_messages_for_batch_offenders():
    table = RunningTable()
    for jid in (4, 7, 9):
        table.add(jid, 1.0, 1.0, 10.0)
    rows = [table.rows[j] for j in (4, 7, 9)]

    def retime(now, t_now):
        for row, t in zip(rows, t_now):
            row[COMPUTE:SPEED] = (t, 0.0, 0.0, 0.0)
        table.retime(rows, [4, 7, 9], now)

    with pytest.raises(SimulationError, match="job 7 computed non-positive"):
        retime(10.0, [1.0, -1.0, -2.0])
    with pytest.raises(SimulationError, match="time went backwards"):
        retime(9.0, [1.0, 1.0, 1.0])
    assert [row[SPEED:] for row in rows] == [[0.0, 10.0, 1.0]] * 3


def test_release_writes_back_and_drops_the_row():
    table = RunningTable()
    for jid in range(100):
        table.add(jid, 1.0, 5.0, 0.0)
    table.rows[42][SPEED:] = (0.5, 3.0, 2.5)
    job = _running_job(0.0, 0.0, 0.0)
    job.job_id = 42
    table.release(job)
    fields = (job.speed, job.last_progress_update, job.remaining_work)
    assert fields == (0.5, 3.0, 2.5)
    assert all(type(x) is float for x in fields)
    assert 42 not in table.rows and len(table.rows) == 99
    table.add(100, 2.0, 7.0, 4.0)
    assert table.rows[100] == [2.0, 0, 0, 0, 0, 0, 4.0, 7.0]


# -- row lifecycle on a small faulty fabric -----------------------------

NUM_NODES = 64
CLUSTER = ClusterSpec(num_nodes=NUM_NODES,
                      fabric=FabricSpec(rack_size=8, oversubscription=4.0))


def _core(policy: str) -> SchedulerCore:
    jobs = random_sequence(seed=3, n_jobs=48, proc_choices=(28, 56, 112),
                           program_names=("MG", "CG", "LU", "BFS", "WC",
                                          "TS", "NW", "EP"))
    plan = FaultPlan.from_mtbf(
        seed=5, num_nodes=NUM_NODES, mtbf_s=2000.0, mttr_s=120.0,
        horizon_s=3000.0, retry=RetryPolicy(max_retries=4, backoff_s=30.0),
    )
    return fast_core(policy, CLUSTER, jobs, fault_plan=plan)


def _fresh_routes(core: SchedulerCore) -> dict:
    cross = core.cluster.cross_jobs
    jids = sorted(cross)
    _, _, route = core.cluster.fabric.link_utilization(
        NUM_NODES, [cross[j][0] for j in jids], [cross[j][1] for j in jids]
    )
    return dict(zip(jids, route.tolist()))


def _check_rows(core: SchedulerCore) -> None:
    """Live rows are the running set, one list each, every entry and
    every progress field a released job holds is a builtin float, and
    every row equals a fresh scalar rebuild from the oracle's per-node
    arbitration of each node's resident key and the per-job bookings."""
    rows = core._table.rows
    running = {jid for jid, job in core.jobs.items()
               if job.state is JobState.RUNNING}
    assert set(rows) == running
    assert len({id(row) for row in rows.values()}) == len(running)
    for jid, job in core.jobs.items():
        fields = rows[jid] if jid in running else (
            job.speed, job.last_progress_update, job.remaining_work)
        assert all(type(x) is float for x in fields), jid
    routes = _fresh_routes(core)
    ways_to_mb = SPEC.cache.ways_to_mb
    mixes = core.cluster.mixes
    booking = bookings_from_meta(mixes.meta)
    partitioned = core.cluster.partitioned
    for jid, row in rows.items():
        job = core.jobs[jid]
        program, procs = job.program, job.procs
        conds = []
        for nid, p in zip(job.placement.node_ids,
                          job.placement.procs.tolist()):
            view = node_view(SPEC, mixes.keys[mixes.mix[nid]], booking,
                             partitioned)
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
        assert row[:SPEED + 1] == expected, jid


def _outcome(makespan, jobs):
    return makespan, [
        (j.job_id, j.state, j.start_time, j.finish_time, j.retries,
         j.speed, j.last_progress_update, j.remaining_work,
         j.lost_node_seconds) for j in jobs]


def _check_oracle(core: SchedulerCore) -> None:
    """The oracle replays the run: decisions, speeds, and every job's
    final progress and fault accounting."""
    result, oracle = assert_matches_oracle(core)
    assert _outcome(result.makespan, result.jobs) == \
        _outcome(oracle.makespan, oracle.jobs)


@pytest.mark.parametrize("policy", ["CE", "SNS"])
def test_row_lifecycle_under_faults(policy):
    core = _core(policy)
    while core.step():
        _check_rows(core)
    counters = core._collect_counters()
    assert counters["job_evictions"] > 0 and counters["job_retries"] > 0
    assert not core._table.rows
    _check_oracle(core)


def test_recycled_mix_ids_start_without_rates(monkeypatch):
    """A freed mix id whose rates were filled comes back for another
    key with no rates, and the run still replays on the oracle."""
    rated = set()        # freed ids that held at least one rate
    reused = []
    release, intern = MixTable.release, MixTable.intern

    def spy_release(mixes, m, count):
        filled = any(r is not None for r in mixes.rates[m])
        release(mixes, m, count)
        if filled and mixes.keys[m] is None:
            rated.add(m)

    def spy_intern(mixes, key, count):
        fresh = key not in mixes.ids
        m = intern(mixes, key, count)
        if fresh and m in rated:
            rated.discard(m)
            reused.append(m)
            assert mixes.rates[m] == [None] * len(key)
        return m

    monkeypatch.setattr(MixTable, "release", spy_release)
    monkeypatch.setattr(MixTable, "intern", spy_intern)
    core = _core("SNS")
    while core.step():
        pass
    assert len(reused) > 10
    _check_oracle(core)
