"""The running-job table: one float64 row per running job.

A job takes a row (a *slot*) when it starts and frees it when it
finishes or is evicted; freed slots are reused.  While the job runs, its
row is the only store of its progress: :meth:`RunningTable.release`
writes ``speed`` / ``last_progress_update`` / ``remaining_work`` back
into the :class:`~repro.sim.job.Job` when it leaves, unsettled (the
runtime then settles the ``Job``).  A row's progress is settled only
when the row is re-timed, since only a re-timing changes its speed.

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

Every expression below repeats the scalar operation sequence of
``job_time``, :meth:`Job.settle_progress` and :meth:`Job.projected_finish`
elementwise, so a batch of rows is bit-identical to the scalar loop.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

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


def time_now(compute: np.ndarray, comm_base: np.ndarray,
             node_cong: np.ndarray, route: np.ndarray) -> np.ndarray:
    """``job_time`` from the rows' parts: the route load binds like node
    congestion once it is larger, and stretches the comm part once the
    congestion exceeds 1.0."""
    cong = np.where(route > node_cong, route, node_cong)
    return compute + np.where(cong > 1.0, comm_base * cong, comm_base)


class RunningTable:
    """Rows of the running jobs, indexed by slot (``slot[job_id]``)."""

    def __init__(self) -> None:
        self.rows = np.zeros((64, 8))
        self.slot: Dict[int, int] = {}
        self._free: List[int] = []

    def add(self, job_id: int, t_ref: float, work: float,
            now: float) -> None:
        """Give a starting job a row: no speed yet, all work left."""
        slot = self._free.pop() if self._free else len(self.slot)
        if slot == len(self.rows):
            self.rows = np.concatenate([self.rows, np.zeros_like(self.rows)])
        self.rows[slot] = (t_ref, 0.0, 0.0, 0.0, 0.0, 0.0, now, work)
        self.slot[job_id] = slot

    def release(self, job) -> None:
        """Free the job's row, writing its progress back into ``job``."""
        slot = self.slot.pop(job.job_id)
        job.speed, job.last_progress_update, job.remaining_work = \
            self.rows[slot, SPEED:].tolist()
        self._free.append(slot)

    def retime(self, slots: Sequence[int], job_ids: Sequence[int],
               now: float) -> Tuple[list, list]:
        """Settle the rows up to ``now`` at their old speeds, set their
        speeds to ``t_ref / t_now``, where ``t_now`` is :func:`time_now`
        of the rows, and return ``(speeds, finishes)`` lists.

        The settle is :meth:`Job.settle_progress`: ``np.where(x > 0.0,
        x, 0.0)`` is builtin ``max(0.0, x)`` on ``-0.0`` and NaN too, and
        a row already settled at ``now`` is unchanged.  Both checks run
        over the whole batch before any row changes, and raise the
        scalar messages (:meth:`Job.set_speed`'s for the first offender
        in ``job_ids`` order)."""
        r = self.rows[slots]
        t_ref, compute, comm_base, node_cong, route, speed, last, \
            remaining = r.T
        dt = now - last
        if np.count_nonzero(dt < -1e-9):
            raise SimulationError("time went backwards")
        x = remaining - speed * dt
        settled = np.where(x > 0.0, x, 0.0)
        new = t_ref / time_now(compute, comm_base, node_cong, route)
        bad = new <= 0.0
        if np.count_nonzero(bad):
            i = int(np.argmax(bad))
            raise SimulationError(
                f"job {job_ids[i]} computed non-positive speed "
                f"{float(new[i])}"
            )
        r[:, SPEED] = new
        r[:, LAST] = now
        r[:, REMAINING] = settled
        self.rows[slots] = r
        return new.tolist(), (now + settled / new).tolist()
