"""Structured decision tracing (DESIGN.md §10).

A :class:`Tracer` is owned per-:class:`~repro.sim.runtime.Simulation`
(the same construction-injection pattern as
:class:`~repro.perfmodel.context.PerfContext` — no globals) and records
one dict per observable event: every scheduler decision, every job
lifecycle transition, and every fault event.  Records are plain dicts
with a fixed key order so the canonical JSONL serialization
(:func:`repro.obs.export.trace_lines`) is **byte-stable**: the
decisions-level stream of a seeded run is identical under the cached
fast path, the unmemoized reference kernels, and interleaved stepping
of several simulations — the golden-trace contract
(``tests/test_trace_golden.py``) enforced in CI.

Overhead contract: a simulation without a tracer pays exactly one
``is None`` check per emission site (tools/bench_report.py gates the
untraced smoke grid at ±5 % and the fully traced one at +10 % of
untraced wall-clock).

Trace levels
------------
``decisions``
    Scheduler decisions + job lifecycle + fault events.  Every record
    at this level is cache-mode independent (bit-identity contract).
``events``
    Adds per-scheduling-point queue summaries (``sched`` records).
``full``
    Adds event-batch records (one event per batch) and per-job speed
    refreshes.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import SimulationError

from repro.obs.timeseries import TimeSeries, timeseries_from_trace


class TraceLevel(enum.IntEnum):
    """How much a tracer records (each level includes the previous)."""

    DECISIONS = 0
    EVENTS = 1
    FULL = 2


#: CLI / config spelling of each level.
LEVEL_NAMES: Dict[str, TraceLevel] = {
    "decisions": TraceLevel.DECISIONS,
    "events": TraceLevel.EVENTS,
    "full": TraceLevel.FULL,
}

#: Record kinds emitted at the ``decisions`` level — the byte-stable
#: subset (also what the invariant checker consumes).
DECISION_KINDS = frozenset({
    "meta", "submit", "start", "finish", "evict", "job_failed",
    "node_fail", "node_recover", "profile_down", "profile_up",
})


def parse_level(level: Union[str, TraceLevel]) -> TraceLevel:
    """Accept either a :class:`TraceLevel` or its CLI spelling."""
    if isinstance(level, TraceLevel):
        return level
    try:
        return LEVEL_NAMES[level]
    except KeyError:
        raise SimulationError(
            f"unknown trace level {level!r}; "
            f"choose from {sorted(LEVEL_NAMES)}"
        ) from None


def decision_stream(events: Iterable[dict]) -> List[dict]:
    """The decisions-level subset of a trace (any level), in order."""
    return [e for e in events if e["ev"] in DECISION_KINDS]


class Tracer:
    """Per-simulation structured event recorder.

    The runtime emits through the typed methods below; each builds one
    dict with a fixed key order and appends it to :attr:`events`.
    :attr:`timeseries` is *derived*: on first access it replays the
    recorded decision records through
    :func:`repro.obs.timeseries.timeseries_from_trace` (so the event
    loop never pays for gauge sampling) and caches the result — read it
    after the run.
    """

    #: Process-wide construction counter (test instrumentation only;
    #: see the no-allocation contract in DESIGN.md §10).
    created: int = 0

    __slots__ = ("level", "events", "_ts_capacity", "_ts")

    def __init__(
        self,
        level: Union[str, TraceLevel] = TraceLevel.EVENTS,
        timeseries: bool = True,
        timeseries_capacity: int = 64,
    ) -> None:
        self.level = parse_level(level)
        self.events: List[dict] = []
        self._ts_capacity = timeseries_capacity if timeseries else None
        self._ts: Optional[TimeSeries] = None
        Tracer.created += 1

    @classmethod
    def from_config(cls, config, num_nodes: int) -> "Tracer":
        """Build a tracer from a :class:`repro.config.TraceConfig`
        (duck-typed to keep this module free of config imports).
        ``num_nodes`` is unused (the gauge series is rebuilt from the
        trace's own meta record) but kept in the signature so callers
        state the cluster they are tracing."""
        del num_nodes
        return cls(
            level=config.level,
            timeseries=config.timeseries,
            timeseries_capacity=config.timeseries_capacity,
        )

    @property
    def timeseries(self) -> Optional[TimeSeries]:
        """The per-node gauge series derived from the trace (``None``
        when disabled or before the meta record exists); built lazily
        and cached, so call it only once the run is over."""
        if self._ts_capacity is None or not self.events:
            return None
        if self._ts is None:
            self._ts = timeseries_from_trace(
                self.events, capacity=self._ts_capacity
            )
        return self._ts

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def wants(self, level: TraceLevel) -> bool:
        return self.level >= level

    def kind_counts(self) -> Dict[str, int]:
        """Record count per kind (terminal summary / tests)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            kind = event["ev"]
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def decision_stream(self) -> List[dict]:
        return decision_stream(self.events)

    # -- decisions-level records (cache-mode independent) ------------------

    def meta(self, *, policy: str, partitioned: bool, num_nodes: int,
             cores: int, llc_ways: int, peak_bw: float,
             n_jobs: int, fabric: Optional[dict] = None) -> None:
        """Header record: the run's static facts, consumed by the
        invariant checker and the exporters.  Deliberately carries no
        trace level, so the decision stream is byte-identical at every
        level (the golden-trace contract); exporters infer the level
        from which record kinds are present.  ``fabric`` (rack size and
        oversubscription ratio) is recorded only when the cluster runs
        an active leaf-spine fabric, so flat-fabric traces stay
        byte-identical to fabric-less ones."""
        record = {
            "ev": "meta", "t": 0.0, "policy": policy,
            "partitioned": partitioned, "nodes": num_nodes,
            "cores": cores, "llc_ways": llc_ways, "peak_bw": peak_bw,
            "jobs": n_jobs,
        }
        if fabric is not None:
            record["fabric"] = fabric
        self.events.append(record)

    def submit(self, t: float, job) -> None:
        """A job (re-)entered the pending queue; ``attempt`` counts
        prior evictions (0 for the first submission)."""
        self.events.append({
            "ev": "submit", "t": t, "job": job.job_id,
            "program": job.program.name, "procs": job.procs,
            "attempt": job.retries,
        })

    def start(self, t: float, job, decision,
              partners: Iterable[int],
              xfrac: Optional[float] = None) -> None:
        """One placement decision: the policy's chosen shape plus the
        decision context (candidate-set size, degraded/trial flags from
        :attr:`~repro.sim.runtime.Decision.meta`, co-location partners
        resident on the chosen nodes at start time).  ``xfrac`` is the
        job's per-node cross-fabric network fraction when its placement
        spans racks on an active fabric (DESIGN.md §13); the key is
        appended only when present, so flat-fabric records are
        byte-identical to the pre-fabric format."""
        placement = decision.placement
        meta = decision.meta or {}
        record = {
            "ev": "start", "t": t, "job": job.job_id,
            "scale": decision.scale_factor, "procs": job.procs,
            "n_nodes": placement.n_nodes,
            "ways": placement.dedicated_ways,
            "bw": placement.booked_bw, "net": placement.booked_net,
            "wait": t - job.submit_time,
            "candidates": meta.get("candidates"),
            "degraded": bool(meta.get("degraded", False)),
            "trial": bool(meta.get("trial", False)),
            "nodes": placement.nodes.tolist(),
            "partners": sorted(partners),
        }
        if xfrac is not None:
            record["xfrac"] = xfrac
        self.events.append(record)

    def finish(self, t: float, job, n_nodes: int) -> None:
        run = job.run_time
        self.events.append({
            "ev": "finish", "t": t, "job": job.job_id, "run": run,
            "node_s": run * n_nodes,
        })

    def evict(self, t: float, job, node_id: int, lost_node_s: float,
              requeue_at: Optional[float]) -> None:
        """A node failure killed this job's run; ``requeue_at`` is the
        resubmission time, or ``None`` when the retry budget is spent
        (a ``job_failed`` record follows)."""
        self.events.append({
            "ev": "evict", "t": t, "job": job.job_id, "node": node_id,
            "attempt": job.retries, "lost_node_s": lost_node_s,
            "requeue_at": requeue_at,
        })

    def job_failed(self, t: float, job) -> None:
        self.events.append({"ev": "job_failed", "t": t, "job": job.job_id})

    def node_fail(self, t: float, node_id: int, evicted: int) -> None:
        self.events.append({
            "ev": "node_fail", "t": t, "node": node_id, "evicted": evicted,
        })

    def node_recover(self, t: float, node_id: int) -> None:
        self.events.append({"ev": "node_recover", "t": t, "node": node_id})

    def profile_store(self, t: float, up: bool) -> None:
        self.events.append({
            "ev": "profile_up" if up else "profile_down", "t": t,
        })

    # -- events-level records ----------------------------------------------

    def links(self, t: float, tor: Sequence[float], spine: float) -> None:
        """Physical fabric link state after a cross-rack set change:
        per-rack ToR uplink utilizations and the spine utilization
        (DESIGN.md §13).  Emitted only when the cluster runs an active
        leaf-spine fabric, so flat traces never carry this kind.  The
        invariant checker replays these records from
        the decision stream's ``start``/``finish``/``evict`` history
        and demands exact float equality."""
        if self.level < TraceLevel.EVENTS:
            return
        self.events.append({
            "ev": "links", "t": t, "tor": list(tor), "spine": spine,
        })

    def sched(self, t: float, pending: int, placed: int,
              tried: int) -> None:
        """One scheduling point: queue depth, placements, and the number
        of pending jobs the policy tried to place."""
        if self.level < TraceLevel.EVENTS:
            return
        self.events.append({
            "ev": "sched", "t": t, "pending": pending, "placed": placed,
            "tried": tried,
        })

    # -- full-level records ------------------------------------------------

    def batch(self, t: float, kinds: Sequence[str]) -> None:
        """One event batch of the run loop (one event per batch)."""
        self.events.append({
            "ev": "batch", "t": t, "n": len(kinds), "kinds": list(kinds),
        })

    def speed(self, t: float, job_id: int, speed: float) -> None:
        self.events.append({
            "ev": "speed", "t": t, "job": job_id, "speed": speed,
        })
