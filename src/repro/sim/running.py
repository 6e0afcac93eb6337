"""The running-job table: one row of eight floats per running job.

A job's row is a plain list, keyed by job id (``rows[job_id]``), made
when the job starts and dropped when it finishes or is evicted.  While
the job runs, its row is the only store of its progress:
:meth:`RunningTable.release` writes ``speed`` / ``last_progress_update``
/ ``remaining_work`` back into the :class:`~repro.sim.job.Job` when it
leaves, unsettled (the runtime then settles the ``Job``).  A row's
progress is settled only when the row is re-timed, since only a
re-timing changes its speed.

Columns (DESIGN.md §7):

- ``T_REF``: the job's CE reference time (``speed = t_ref / t_now``);
- ``COMPUTE``, ``COMM_BASE``, ``NODE_CONG``: the parts of
  :func:`~repro.perfmodel.execution.job_time` that depend only on the
  job's node conditions, rebuilt only when a node of the job is
  touched.  The runtime reads those conditions per resident mix, never
  per node: the slowest of the job's per-mix process rates (each
  computed once per mix lifetime, ``MixTable.rates``) feeds
  :func:`time_parts`, and ``NODE_CONG`` is the largest net load of the
  job's mixes;
- ``ROUTE``: the load of the most loaded fabric link on the job's route
  (``0.0`` for jobs inside one rack and on a flat fabric);
- ``SPEED``, ``LAST``, ``REMAINING``: the progress fields.

Every entry is a builtin ``float``, and every expression below repeats
the scalar operation sequence of ``job_time``,
:meth:`Job.settle_progress` and :meth:`Job.projected_finish`, so a
re-timed row is bit-identical to the scalar code.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.perfmodel.execution import scale_factor_of

T_REF, COMPUTE, COMM_BASE, NODE_CONG, ROUTE, SPEED, LAST, REMAINING = range(8)


def time_parts(spec, program, procs: int, n_nodes: int, t_ref: float,
               slowest: float) -> Tuple[float, float]:
    """``(compute, comm_base)`` of a running job whose slowest node runs
    each process at ``slowest`` instructions/s: the operations
    :func:`~repro.perfmodel.execution.job_time` applies to its
    ``process_rate`` minimum, without the span check (the caller runs
    it before computing any rate)."""
    compute = program.instr_per_proc(procs) / slowest
    k = scale_factor_of(n_nodes, procs, spec)
    return compute, t_ref * program.comm.comm_fraction(k, n_nodes)


def time_now(compute: float, comm_base: float, node_cong: float,
             route: float) -> float:
    """``job_time`` from a row's parts: the route load binds like node
    congestion once it is larger, and stretches the comm part once the
    congestion exceeds 1.0."""
    cong = route if route > node_cong else node_cong
    return compute + (comm_base * cong if cong > 1.0 else comm_base)


class RunningTable:
    """Rows of the running jobs, keyed by job id (``rows[job_id]``)."""

    def __init__(self) -> None:
        self.rows: Dict[int, List[float]] = {}

    def add(self, job_id: int, t_ref: float, work: float,
            now: float) -> None:
        """Give a starting job a row: no speed yet, all work left."""
        self.rows[job_id] = [t_ref, 0.0, 0.0, 0.0, 0.0, 0.0, now, work]

    def release(self, job) -> None:
        """Drop the job's row, writing its progress back into ``job``."""
        job.speed, job.last_progress_update, job.remaining_work = \
            self.rows.pop(job.job_id)[SPEED:]

    @staticmethod
    def retime(rows: Sequence[List[float]], job_ids: Sequence[int],
               now: float) -> Tuple[list, list]:
        """Settle ``rows`` (those of ``job_ids``) up to ``now`` at their
        old speeds, set their speeds to ``t_ref / t_now``, where
        ``t_now`` is :func:`time_now` of the row, and return ``(speeds,
        finishes)`` lists.

        The settle is :meth:`Job.settle_progress`: ``x if x > 0.0 else
        0.0`` is builtin ``max(0.0, x)`` on ``-0.0`` and NaN too, and a
        row already settled at ``now`` is unchanged.  Both checks run
        over the whole batch before any row changes, and raise the
        scalar messages (:meth:`Job.set_speed`'s for the first offender
        in ``job_ids`` order)."""
        speeds = []
        settles = []
        backwards = False
        for t_ref, compute, comm_base, node_cong, route, speed, last, \
                remaining in rows:
            dt = now - last
            if dt < -1e-9:
                backwards = True
            x = remaining - speed * dt
            settles.append(x if x > 0.0 else 0.0)
            speeds.append(t_ref / time_now(compute, comm_base, node_cong,
                                           route))
        if backwards:
            raise SimulationError("time went backwards")
        for jid, new in zip(job_ids, speeds):
            if new <= 0.0:
                raise SimulationError(
                    f"job {jid} computed non-positive speed {new}")
        finishes = []
        for row, new, settled in zip(rows, speeds, settles):
            row[SPEED] = new
            row[LAST] = now
            row[REMAINING] = settled
            finishes.append(now + settled / new)
        return speeds, finishes
