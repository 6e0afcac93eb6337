"""Bounded-memory per-node gauge time series (DESIGN.md §10).

The series is a ``(channels, nodes)`` gauge matrix — free cores, booked
bandwidth, allocated LLC ways, resident job count — sampled at every
decision timestamp.  It is **derived from the trace after the run**
(:func:`timeseries_from_trace` replays the decisions-level records
through a small ledger, the same state machine the invariant checker
trusts), so the simulation loop pays nothing for it: per-node gauges
only change at placement / release / fault transitions, and those are
exactly the records the tracer already emits.

A 32K-node run can cross millions of event timestamps, so the collector
keeps memory flat with *stride doubling*: samples are accepted every
``stride`` ticks into at most ``capacity`` buckets; when the buckets
fill, adjacent pairs merge (element-wise min/max union, later bucket's
last sample wins) and the stride doubles.  The retained buckets
therefore always tile the full simulated time span, and within every
retained bucket the element-wise **min, max, and last** gauge values
are exact — only intermediate samples are dropped.  That preservation
law is the contract ``tests/test_telemetry.py`` checks against a
brute-force reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs.trace import _split_procs, decision_stream

#: Row order of the gauge matrix sampled by
#: :meth:`repro.sim.cluster.ClusterState.gauge_columns`.
CHANNELS = ("free_cores", "booked_bw", "alloc_ways", "residents")


class _Bucket:
    """One retained sample bucket covering ``[t0, t1]``."""

    __slots__ = ("t0", "t1", "last", "lo", "hi", "count")

    def __init__(self, t: float, gauges: np.ndarray) -> None:
        self.t0 = t
        self.t1 = t
        self.last = gauges
        self.lo = gauges
        self.hi = gauges
        self.count = 1

    def absorb(self, other: "_Bucket") -> None:
        """Merge a later bucket into this one (span union, min/max
        element-wise, later sample becomes the representative)."""
        self.t1 = other.t1
        self.last = other.last
        self.lo = np.minimum(self.lo, other.lo)
        self.hi = np.maximum(self.hi, other.hi)
        self.count += other.count


class TimeSeries:
    """Reservoir-style per-node gauge collector.

    ``capacity`` bounds the number of retained buckets; each bucket
    stores three ``(len(CHANNELS), num_nodes)`` float64 arrays (last /
    min / max), so peak memory is ``capacity * 3 * 4 * num_nodes * 8``
    bytes — ~50 MB at 8192 nodes with the default capacity, independent
    of run length.
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
        The runtime calls this *before* materialising the gauge matrix
        so skipped ticks cost nothing but an integer increment."""
        if self._tick % self.stride:
            self._tick += 1
            return False
        return True

    def add(self, t: float, gauges: np.ndarray) -> None:
        """Record one gauge sample (only called when :meth:`due`)."""
        if gauges.shape != (len(CHANNELS), self.num_nodes):
            raise SimulationError(
                f"gauge matrix must be {(len(CHANNELS), self.num_nodes)}, "
                f"got {gauges.shape}"
            )
        self._tick += 1
        buckets = self._buckets
        if buckets and t < buckets[-1].t1:
            raise SimulationError("time series samples must be monotone")
        buckets.append(_Bucket(t, gauges))
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

    @property
    def sample_counts(self) -> np.ndarray:
        """Raw samples absorbed into each retained bucket."""
        return np.array([b.count for b in self._buckets], dtype=np.int64)

    def _channel_index(self, channel: str) -> int:
        try:
            return CHANNELS.index(channel)
        except ValueError:
            raise SimulationError(
                f"unknown channel {channel!r}; choose from {CHANNELS}"
            ) from None

    def node_series(
        self, channel: str, node_id: int, stat: str = "last"
    ) -> np.ndarray:
        """One node's retained series for a channel.

        ``stat`` selects ``"last"`` (the bucket's final sample),
        ``"min"``, or ``"max"`` (exact extrema over all samples the
        bucket absorbed).
        """
        c = self._channel_index(channel)
        if not 0 <= node_id < self.num_nodes:
            raise SimulationError(f"node id {node_id} out of range")
        attr = {"last": "last", "min": "lo", "max": "hi"}.get(stat)
        if attr is None:
            raise SimulationError(f"unknown stat {stat!r}")
        return np.array(
            [getattr(b, attr)[c, node_id] for b in self._buckets]
        )

    def cluster_series(
        self, channel: str, stat: str = "last"
    ) -> np.ndarray:
        """Cluster-wide sum of a channel at each retained bucket.

        Sums the per-node ``stat`` values; for ``min``/``max`` this is
        a per-node bound, not the extremum of the cluster total.
        """
        c = self._channel_index(channel)
        attr = {"last": "last", "min": "lo", "max": "hi"}.get(stat)
        if attr is None:
            raise SimulationError(f"unknown stat {stat!r}")
        return np.array(
            [float(getattr(b, attr)[c].sum()) for b in self._buckets]
        )

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

    def chrome_counters(
        self, pid: int = 0, limit: Optional[int] = None
    ) -> List[dict]:
        """Chrome ``trace_event`` counter ("C") records of the
        cluster-total series (consumed by :mod:`repro.obs.export`)."""
        records: List[dict] = []
        buckets = self._buckets if limit is None else self._buckets[:limit]
        for b in buckets:
            for c, channel in enumerate(CHANNELS):
                records.append({
                    "name": channel, "ph": "C", "pid": pid,
                    "ts": b.t1 * 1e6,
                    "args": {channel: float(b.last[c].sum())},
                })
        return records


def timeseries_from_trace(
    events: List[dict], capacity: int = 64
) -> TimeSeries:
    """Rebuild the per-node gauge series by replaying a trace.

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
        series.add(0.0, gauges.copy())
    last_t = 0.0
    i = 0
    while i < len(stream) - 1:
        t = stream[i + 1]["t"]
        while i < len(stream) - 1 and stream[i + 1]["t"] == t:
            apply(stream[i + 1])
            i += 1
        if series.due():
            series.add(t, gauges.copy())
        last_t = t
    series.finalize(last_t, gauges.copy())
    return series
