"""Layer spans recorded from outside the program.

:class:`SpanRecorder` wraps public functions and methods of the program
(class attributes and module globals, restored on exit) so that every
call records a span: name, start, end and parent span.  Spans stay in
memory; :meth:`SpanRecorder.analyse` turns them into per-name self time
(span time minus the time of its child spans), call counts and step
latencies, and :meth:`SpanRecorder.save` writes them out.

Span names are ``<layer>.<what>``; the layer is everything before the
last dot (``sim.cluster.scan_hosts`` belongs to ``sim.cluster``).
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np


def _targets() -> List[Tuple[str, object, str]]:
    """(span name, owner, attribute) of every wrapped call site."""
    from repro.obs.trace import Tracer
    from repro.perfmodel import batch
    from repro.profiling.database import ProfileDatabase
    from repro.scheduling import cs, sns
    from repro.scheduling.base import BaseScheduler
    from repro.service import protocol
    from repro.sim.cluster import ClusterState
    from repro.sim.engine import EventQueue
    from repro.sim.runtime import SchedulerCore

    targets = [
        ("scheduling.schedule_point", BaseScheduler, "schedule_point"),
        ("scheduling.find_nodes", sns, "find_nodes"),
        ("scheduling.find_nodes", cs, "find_nodes"),
        ("scheduling.demand", sns, "estimate_demands_batch"),
        ("sim.step", SchedulerCore, "step"),
        ("perfmodel.arbitration_batch", ClusterState, "arbitration_batch"),
        ("perfmodel.arbitrate_nodes", batch, "arbitrate_nodes"),
        ("profiling.get_or_profile", ProfileDatabase, "get_or_profile"),
        ("service.protocol", protocol, "decode"),
        ("service.protocol", protocol, "encode"),
        ("service.core_submit", SchedulerCore, "submit"),
    ]
    for method in ("place_slices", "remove_slices", "scan_hosts",
                   "pick_idlest"):
        targets.append((f"sim.cluster.{method}", ClusterState, method))
    for method in ("fail_node", "recover_node"):
        targets.append(("sim.cluster.fail_recover", ClusterState, method))
    for method in ("pop", "pop_submit_at", "pop_finish_at", "push_submit",
                   "push_finish", "cancel_finish"):
        targets.append(("sim.engine", EventQueue, method))
    for method in ("meta", "submit", "start", "finish", "evict",
                   "job_failed", "node_fail", "node_recover",
                   "profile_store", "links", "sched", "batch", "speed"):
        targets.append(("obs.tracer", Tracer, method))
    return targets


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        rec = self
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack = rec._stack()
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.end.append(0)
            stack.append(idx)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                stack.pop()

        return span

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, owner, attr in _targets():
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def analyse(self) -> Dict[str, dict]:
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s``
        and, for ``sim.step``, the span durations in seconds."""
        n = len(self.start)
        out: Dict[str, dict] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        if n == 0:
            return out
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                         "self_s": float(self_s[i])}
        step = self._ids.get("sim.step")
        if step is not None:
            out["sim.step"]["durations"] = dur[ids == step]
        return out

    def save(self, path) -> None:
        """Write the spans (names plus start/end/parent columns)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
