"""Discrete-event queue with lazy cancellation."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Event, EventKind, EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push_submit(5.0, 1)
        q.push_submit(1.0, 2)
        q.push_submit(3.0, 3)
        assert [q.pop().job_id for _ in range(3)] == [2, 3, 1]

    def test_finish_before_submit_at_same_time(self):
        q = EventQueue()
        q.push_submit(1.0, 1)
        q.push_finish(1.0, 2)
        assert q.pop().kind is EventKind.JOB_FINISH
        assert q.pop().kind is EventKind.JOB_SUBMIT

    def test_clock_advances(self):
        q = EventQueue()
        q.push_submit(2.5, 1)
        q.pop()
        assert q.now == 2.5

    def test_drained_queue_returns_none(self):
        q = EventQueue()
        assert q.pop() is None

    def test_len_counts_heap_entries(self):
        q = EventQueue()
        q.push_submit(1.0, 1)
        q.push_submit(2.0, 2)
        assert len(q) == 2


class TestEventTuple:
    def test_equal_time_pops_by_kind_then_push_order(self):
        q = EventQueue()
        q.push_submit(1.0, 10)
        q.push_fault(1.0, EventKind.NODE_FAIL, 3)
        q.push_submit(1.0, 11)
        q.push_finish(1.0, 12)
        q.push_fault(1.0, EventKind.PROFILE_UP)
        q.push_fault(1.0, EventKind.NODE_RECOVER, 4)
        q.push_submit(1.0, 9)  # lower id, pushed last: pops last
        popped = [(ev.kind, ev.job_id) for ev in iter(q.pop, None)]
        assert popped == [
            (EventKind.JOB_FINISH, 12),
            (EventKind.NODE_FAIL, 3),
            (EventKind.NODE_RECOVER, 4),
            (EventKind.PROFILE_UP, -1),
            (EventKind.JOB_SUBMIT, 10),
            (EventKind.JOB_SUBMIT, 11),
            (EventKind.JOB_SUBMIT, 9),
        ]

    def test_fields(self):
        ev = Event(2.5, EventKind.JOB_SUBMIT, 0, 7)
        assert isinstance(ev, tuple)
        assert (ev.time, ev.kind, ev.job_id, ev.version) == \
            (2.5, EventKind.JOB_SUBMIT, 7, 0)
        q = EventQueue()
        q.push_finish(3.0, 4)
        q.push_finish(3.0, 4)
        ev = q.pop()
        assert (ev.time, ev.kind, ev.job_id, ev.version) == \
            (3.0, EventKind.JOB_FINISH, 4, 2)

    def test_pop_submit_at_skips_stale_finish(self):
        q = EventQueue()
        q.push_finish(1.0, 1)
        q.push_finish(2.0, 1)  # the finish at 1.0 is now stale
        q.push_submit(1.0, 5)
        ev = q.pop_submit_at(1.0)
        assert (ev.kind, ev.job_id) == (EventKind.JOB_SUBMIT, 5)
        assert q.pop_submit_at(1.0) is None
        assert q.pop().time == 2.0

    def test_pop_finish_at_skips_stale_finish(self):
        q = EventQueue()
        q.push_finish(1.0, 1)
        q.push_finish(1.0, 1)  # same time, newer version
        q.push_finish(1.0, 2)
        assert q.pop_finish_at(1.0, {1}) == (None, True)
        ev, blocked = q.pop_finish_at(1.0, set())
        assert not blocked and (ev.job_id, ev.version) == (1, 2)
        ev, blocked = q.pop_finish_at(1.0, set())
        assert not blocked and ev.job_id == 2
        assert q.pop_finish_at(1.0, set()) == (None, False)

    def test_peek_time_skips_stale_finish(self):
        q = EventQueue()
        q.push_finish(1.0, 1)
        q.cancel_finish(1)
        q.push_fault(3.0, EventKind.NODE_FAIL, 0)
        assert q.peek_time() == 3.0
        assert len(q) == 1  # the stale entry was discarded


class TestLazyCancellation:
    def test_reschedule_invalidates_old_finish(self):
        q = EventQueue()
        q.push_finish(10.0, 1)
        q.push_finish(5.0, 1)  # reschedule earlier
        ev = q.pop()
        assert ev.time == 5.0
        assert q.pop() is None  # the 10.0 event is stale

    def test_cancel_finish(self):
        q = EventQueue()
        q.push_finish(3.0, 1)
        q.cancel_finish(1)
        assert q.pop() is None

    def test_cancel_only_affects_target_job(self):
        q = EventQueue()
        q.push_finish(1.0, 1)
        q.push_finish(2.0, 2)
        q.cancel_finish(1)
        ev = q.pop()
        assert ev.job_id == 2

    def test_peek_skips_stale(self):
        q = EventQueue()
        q.push_finish(1.0, 1)
        q.push_finish(4.0, 1)
        q.push_submit(2.0, 2)
        assert q.peek_time() == 2.0

    def test_peek_empty(self):
        assert EventQueue().peek_time() is None


class TestValidation:
    def test_rejects_past_events(self):
        q = EventQueue()
        q.push_submit(10.0, 1)
        q.pop()
        with pytest.raises(SimulationError):
            q.push_submit(5.0, 2)
        with pytest.raises(SimulationError):
            q.push_finish(5.0, 2)

    def test_same_time_event_allowed(self):
        q = EventQueue()
        q.push_submit(10.0, 1)
        q.pop()
        q.push_finish(10.0, 2)  # must not raise
        assert q.pop().job_id == 2
