"""Discrete-event queue with lazy cancellation.

Job-finish events are re-scheduled whenever co-runner churn changes a
job's speed; instead of searching the heap, each job carries an event
version and stale events are dropped on pop (standard lazy-deletion
pattern, O(log n) per operation).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import NamedTuple, Optional, Tuple

from repro.errors import SimulationError


class EventKind(enum.IntEnum):
    """Event types, ordered so ties at equal timestamps resolve sensibly:
    finishes free resources first (a job completing at the instant its
    node dies still completes), then faults take effect, then recoveries
    and profile-store transitions, and submissions claim resources last
    (so a submit never lands on a node that dies at the same instant)."""

    JOB_FINISH = 0
    NODE_FAIL = 1
    NODE_RECOVER = 2
    PROFILE_DOWN = 3
    PROFILE_UP = 4
    JOB_SUBMIT = 5

    @property
    def label(self) -> str:
        """Lowercase wire name used by full-level trace batch records
        (:meth:`repro.obs.trace.Tracer.batch`)."""
        return self.name.lower()


class Event(NamedTuple):
    """One queue entry.  ``job_id`` carries the event's subject: a job
    id for submit/finish events, a node id for ``NODE_FAIL`` /
    ``NODE_RECOVER``, and ``-1`` for profile-store transitions.

    A plain tuple, so ``heapq`` compares entries in C.  Entries order by
    ``(time, kind, seq)``; ``seq`` is unique per queue, so a comparison
    never reaches ``job_id`` or ``version``."""

    time: float
    kind: EventKind
    seq: int
    job_id: int
    version: int = 0


class EventQueue:
    """Min-heap of events with version-based lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self._versions: dict = {}
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def push_submit(self, time: float, job_id: int) -> None:
        if time < self._now - 1e-9:
            raise SimulationError("cannot schedule event in the past")
        heapq.heappush(
            self._heap, Event(time, EventKind.JOB_SUBMIT, next(self._seq), job_id)
        )

    def push_fault(self, time: float, kind: EventKind,
                   subject_id: int = -1) -> None:
        """Schedule a fault-plan event (node fail/recover or a
        profile-store transition).  Fault events are immutable facts of
        the plan: they never version and are never cancelled."""
        if kind not in (EventKind.NODE_FAIL, EventKind.NODE_RECOVER,
                        EventKind.PROFILE_DOWN, EventKind.PROFILE_UP):
            raise SimulationError(f"{kind!r} is not a fault event kind")
        if time < self._now - 1e-9:
            raise SimulationError("cannot schedule event in the past")
        heapq.heappush(
            self._heap, Event(time, kind, next(self._seq), subject_id)
        )

    def push_finish(self, time: float, job_id: int) -> None:
        """(Re-)schedule a job's finish; any previously queued finish for
        the same job becomes stale."""
        if time < self._now - 1e-9:
            raise SimulationError("cannot schedule event in the past")
        version = self._versions.get(job_id, 0) + 1
        self._versions[job_id] = version
        heapq.heappush(
            self._heap,
            Event(time, EventKind.JOB_FINISH, next(self._seq), job_id, version),
        )

    def cancel_finish(self, job_id: int) -> None:
        """Invalidate any queued finish event for ``job_id``."""
        self._versions[job_id] = self._versions.get(job_id, 0) + 1

    def retire(self, job_id: int) -> None:
        """Forget a *terminal* job's version counter, bounding
        ``_versions`` to the live-job set (it used to grow one entry per
        job forever — a real cost on the full-Trinity trace and future
        streaming workloads).  Any of the job's finish events still in
        the heap read as stale against the missing entry (``None`` never
        equals an event version), exactly like a cancellation.

        Only safe once the job can never be re-pushed: a retired id that
        ran again would restart versioning at 1 and could collide with a
        stale heap entry from the earlier attempt.  Evicted-but-retrying
        jobs therefore keep their entry (:meth:`cancel_finish`).
        """
        self._versions.pop(job_id, None)

    def pop(self) -> Optional[Event]:
        """Next live event, advancing the clock; ``None`` when drained."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.kind is EventKind.JOB_FINISH:
                if self._versions.get(ev.job_id) != ev.version:
                    continue  # stale
            if ev.time < self._now - 1e-9:
                raise SimulationError("event queue went backwards in time")
            self._now = max(self._now, ev.time)
            return ev
        return None

    def pop_submit_at(self, time: float) -> Optional[Event]:
        """Pop the next live event only if it is a ``JOB_SUBMIT`` at
        exactly ``time`` (float equality); otherwise leave the queue
        untouched and return ``None``.  Stale finishes at the head are
        discarded on the way.

        The runtime processes one event per step and calls neither this
        nor :meth:`pop_finish_at`; both stay only because the
        benchmark's span recorder (``perfbench/spans.py``) wraps them by
        name, and go with its next revision.
        """
        while self._heap:
            ev = self._heap[0]
            if (
                ev.kind is EventKind.JOB_FINISH
                and self._versions.get(ev.job_id) != ev.version
            ):
                heapq.heappop(self._heap)
                continue  # stale finish: discard and keep looking
            if ev.kind is not EventKind.JOB_SUBMIT or ev.time != time:
                return None
            heapq.heappop(self._heap)
            self._now = max(self._now, ev.time)
            return ev
        return None

    def pop_finish_at(self, time: float, exclude) -> Tuple[Optional[Event], bool]:
        """Drain one live ``JOB_FINISH`` at exactly ``time`` whose job is
        not in ``exclude``, or report why none was drained.

        Returns ``(event, False)`` on a drained finish, ``(None, False)``
        when the head is not a finish at ``time``, and ``(None, True)``
        — *blocked* — when the head IS a live finish at ``time`` but its
        job is in ``exclude``.  Unused by the runtime (see
        :meth:`pop_submit_at`).
        """
        while self._heap:
            ev = self._heap[0]
            if ev.kind is not EventKind.JOB_FINISH or ev.time != time:
                return None, False
            if self._versions.get(ev.job_id) != ev.version:
                heapq.heappop(self._heap)
                continue  # stale finish: discard and keep looking
            if ev.job_id in exclude:
                return None, True
            heapq.heappop(self._heap)
            self._now = max(self._now, ev.time)
            return ev, False
        return None, False

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event without popping it."""
        while self._heap:
            ev = self._heap[0]
            if (
                ev.kind is EventKind.JOB_FINISH
                and self._versions.get(ev.job_id) != ev.version
            ):
                heapq.heappop(self._heap)
                continue
            return ev.time
        return None
