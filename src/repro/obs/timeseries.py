"""Bounded-memory cluster gauge time series (DESIGN.md §10).

The gauges are a ``(channels, nodes)`` matrix — free cores, booked
bandwidth, allocated LLC ways, resident job count — sampled at every
decision timestamp.  The series is **derived from the trace after the
run** (:func:`timeseries_from_trace` replays the decisions-level records
through a small per-node ledger, the same state machine the invariant
checker trusts), so the simulation loop pays nothing for it: per-node
gauges only change at placement / release / fault transitions, and
those are exactly the records the tracer already emits.

Each retained sample keeps only the cluster total of every channel
(the row sums of the gauge matrix).  A 32K-node run can cross millions
of event timestamps, so the collector keeps memory flat with *stride
doubling*: samples are accepted every ``stride`` ticks into at most
``capacity`` buckets; when the buckets fill, adjacent pairs merge (span
union, the later bucket's totals win) and the stride doubles.  The
retained buckets therefore always tile the full simulated time span,
and every bucket holds the exact totals of its last sample — only
intermediate samples are dropped.  ``tests/test_telemetry.py`` checks
that law against a brute-force reference.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.trace import _split_procs, decision_stream

#: Row order of the gauge matrix sampled by
#: :meth:`repro.sim.cluster.ClusterState.gauge_columns`.
CHANNELS = ("free_cores", "booked_bw", "alloc_ways", "residents")


class _Bucket:
    """One retained sample bucket covering ``[t0, t1]``, holding the
    per-channel cluster totals of its last sample."""

    __slots__ = ("t0", "t1", "totals")

    def __init__(self, t: float, totals: Tuple[float, ...]) -> None:
        self.t0 = t
        self.t1 = t
        self.totals = totals

    def absorb(self, other: "_Bucket") -> None:
        """Merge a later bucket into this one (span union, the later
        sample's totals become the representative)."""
        self.t1 = other.t1
        self.totals = other.totals


class TimeSeries:
    """Reservoir-style cluster-total gauge collector.

    ``capacity`` bounds the number of retained buckets; each bucket
    stores one float per channel (``len(CHANNELS)`` floats), so memory
    is independent of both the node count and the run length.
    """

    __slots__ = ("num_nodes", "capacity", "stride", "_tick", "_buckets")

    def __init__(self, num_nodes: int, capacity: int = 64) -> None:
        if num_nodes <= 0:
            raise SimulationError("num_nodes must be positive")
        if capacity < 4 or capacity % 2:
            raise SimulationError("capacity must be an even number >= 4")
        self.num_nodes = num_nodes
        self.capacity = capacity
        self.stride = 1
        self._tick = 0
        self._buckets: List[_Bucket] = []

    # -- collection --------------------------------------------------------

    def due(self) -> bool:
        """Whether the next :meth:`add` call would retain its sample.
        The caller checks this *before* materialising the gauge matrix
        so skipped ticks cost nothing but an integer increment."""
        if self._tick % self.stride:
            self._tick += 1
            return False
        return True

    def add(self, t: float, gauges: np.ndarray) -> None:
        """Record one gauge sample (only called when :meth:`due`); the
        matrix is reduced to its row sums here and not retained."""
        if gauges.shape != (len(CHANNELS), self.num_nodes):
            raise SimulationError(
                f"gauge matrix must be {(len(CHANNELS), self.num_nodes)}, "
                f"got {gauges.shape}"
            )
        self._tick += 1
        buckets = self._buckets
        if buckets and t < buckets[-1].t1:
            raise SimulationError("time series samples must be monotone")
        buckets.append(_Bucket(t, tuple(float(row.sum()) for row in gauges)))
        if len(buckets) >= self.capacity:
            self._compact()

    def finalize(self, t: float, gauges: np.ndarray) -> None:
        """Force a terminal sample at the makespan regardless of stride,
        so the series always covers the full run."""
        if self._buckets and self._buckets[-1].t1 == t:
            return
        self._tick = 0  # make the next modulo check pass
        self.add(t, gauges)

    def _compact(self) -> None:
        """Merge adjacent bucket pairs and double the stride."""
        buckets = self._buckets
        merged: List[_Bucket] = []
        for i in range(0, len(buckets) - 1, 2):
            head = buckets[i]
            head.absorb(buckets[i + 1])
            merged.append(head)
        if len(buckets) % 2:
            merged.append(buckets[-1])
        self._buckets = merged
        self.stride *= 2

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buckets)

    @property
    def times(self) -> np.ndarray:
        """Representative time of each retained bucket (its last
        sample's timestamp)."""
        return np.array([b.t1 for b in self._buckets])

    @property
    def spans(self) -> np.ndarray:
        """``(n_buckets, 2)`` array of ``[t0, t1]`` bucket spans."""
        return np.array([[b.t0, b.t1] for b in self._buckets])

    def cluster_series(self, channel: str) -> np.ndarray:
        """Cluster-wide total of a channel at each retained bucket's
        last sample."""
        try:
            c = CHANNELS.index(channel)
        except ValueError:
            raise SimulationError(
                f"unknown channel {channel!r}; choose from {CHANNELS}"
            ) from None
        return np.array([b.totals[c] for b in self._buckets])

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-channel cluster-total stats over the retained series
        (terminal summary / quick sanity checks)."""
        out: Dict[str, Dict[str, float]] = {}
        for channel in CHANNELS:
            series = self.cluster_series(channel)
            if series.size == 0:
                out[channel] = {"mean": 0.0, "peak": 0.0, "final": 0.0}
            else:
                out[channel] = {
                    "mean": float(series.mean()),
                    "peak": float(series.max()),
                    "final": float(series[-1]),
                }
        return out

    def chrome_counters(self, pid: int = 0) -> List[dict]:
        """Chrome ``trace_event`` counter ("C") records of the
        cluster-total series (consumed by :mod:`repro.obs.export`)."""
        records: List[dict] = []
        for b in self._buckets:
            for channel, total in zip(CHANNELS, b.totals):
                records.append({
                    "name": channel, "ph": "C", "pid": pid,
                    "ts": b.t1 * 1e6,
                    "args": {channel: total},
                })
        return records


def timeseries_from_trace(
    events: List[dict], capacity: int = 64
) -> TimeSeries:
    """Rebuild the gauge series by replaying a trace.

    Walks the decisions-level records (any trace level carries them)
    through a per-node gauge ledger and feeds one sample per decision
    timestamp into a :class:`TimeSeries` — gauges cannot change between
    decision records, so the replayed series is exact at every retained
    sample.  Down nodes report zero on every channel (no capacity, no
    residents) until their ``node_recover``, matching
    :meth:`repro.sim.cluster.ClusterState.gauge_columns`.
    """
    stream = decision_stream(events)
    if not stream or stream[0]["ev"] != "meta":
        raise SimulationError(
            "cannot build a time series: trace must begin with a meta "
            "record"
        )
    meta = stream[0]
    n = meta["nodes"]
    partitioned = meta["partitioned"]
    series = TimeSeries(n, capacity=capacity)
    gauges = np.zeros((len(CHANNELS), n), dtype=np.float64)
    gauges[0] = meta["cores"]
    live: Dict[int, dict] = {}  # job -> its start record
    down: set = set()

    def apply(event: dict) -> None:
        kind = event["ev"]
        if kind == "start":
            nodes = event["nodes"]
            live[event["job"]] = event
            for nid, procs in zip(nodes,
                                  _split_procs(event["procs"], len(nodes))):
                gauges[0, nid] -= procs
                gauges[1, nid] += event["bw"]
                if partitioned:
                    gauges[2, nid] += event["ways"]
                gauges[3, nid] += 1
        elif kind in ("finish", "evict"):
            start = live.pop(event["job"])
            nodes = start["nodes"]
            for nid, procs in zip(nodes,
                                  _split_procs(start["procs"], len(nodes))):
                if nid in down:
                    continue  # the whole column was zeroed at node_fail
                gauges[0, nid] += procs
                gauges[1, nid] -= start["bw"]
                if partitioned:
                    gauges[2, nid] -= start["ways"]
                gauges[3, nid] -= 1
        elif kind == "node_fail":
            down.add(event["node"])
            gauges[:, event["node"]] = 0.0
        elif kind == "node_recover":
            down.discard(event["node"])
            gauges[0, event["node"]] = meta["cores"]
        # submit / job_failed / profile_* leave the gauges unchanged

    # Anchor the series at t=0 unless the first decisions land there
    # anyway (one sample per distinct timestamp, post-application).
    if (len(stream) == 1 or stream[1]["t"] > 0.0) and series.due():
        series.add(0.0, gauges)
    last_t = 0.0
    i = 0
    while i < len(stream) - 1:
        t = stream[i + 1]["t"]
        while i < len(stream) - 1 and stream[i + 1]["t"] == t:
            apply(stream[i + 1])
            i += 1
        if series.due():
            series.add(t, gauges)
        last_t = t
    series.finalize(last_t, gauges)
    return series
