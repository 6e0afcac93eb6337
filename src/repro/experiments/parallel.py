"""Parallel experiment grids: one entry point, serial or a process pool.

The heavy experiments (Figs 14-16, 20, ablations) are embarrassingly
parallel across their outermost axis: every grid point is an independent
simulation with its own cluster, jobs, and caches.  :func:`run_grid`
fans those points out while guaranteeing the results are
*indistinguishable* from a serial run:

* tasks are dispatched and collected in submission order, so the merged
  result list is deterministic;
* every worker re-derives its inputs from seeds / pickled immutable
  configs — there is no shared mutable state to race on (each
  simulation owns its cluster, policy and counters, DESIGN.md §9);
* worker exceptions propagate to the caller exactly as they would
  serially; only a failure to *create* a process pool (e.g. a sandbox
  without process support) silently falls back to the serial path.

``jobs`` alone picks how a grid runs, with one convention everywhere
(:func:`resolve_jobs`): ``None``/``1`` serial, ``<= 0`` one worker
process per CPU, else that many.  Threads and a shared-memory process
runner were measured against this pool and deleted: on a 2-core host
threads ran the smoke grid slower than serial, and shared-memory
dispatch never beat the pool (DESIGN.md §7).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value to a worker count.

    ``None`` -> 1 (serial), ``<= 0`` -> one worker per CPU, otherwise
    the value itself.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_grid(
    worker: Callable[[T], R],
    tasks: Sequence[T],
    *,
    jobs: Optional[int] = None,
) -> List[R]:
    """Map ``worker`` over ``tasks``, serially or on a process pool.

    Drop-in for ``[worker(t) for t in tasks]``: results come back in
    task order regardless of completion order, and the values are
    bit-identical to the serial run (the contract
    ``tests/test_perf_equivalence.py`` and ``tools/bench_report.py``
    enforce).  With more than one worker, ``worker`` must be a
    top-level function and every task and result picklable.
    """
    tasks = list(tasks)
    n_workers = min(resolve_jobs(jobs), len(tasks))
    if n_workers <= 1:
        return [worker(t) for t in tasks]
    try:
        pool = ProcessPoolExecutor(max_workers=n_workers)
    except (NotImplementedError, OSError, ValueError):
        # No process support in this environment: degrade to serial
        # rather than failing the experiment.
        return [worker(t) for t in tasks]
    with pool:
        return list(pool.map(worker, tasks))
