"""Per-node bandwidth telemetry (paper Figs 17-18).

The paper monitors each node's average DRAM bandwidth in 30-second
episodes and plots the node x episode heat matrix plus its histogram.
Sampling timers would pollute the event queue, so the recorder instead
stores exact piecewise-constant bandwidth segments — a new segment opens
whenever a node's resident set changes — and integrates them into
episode averages on demand.  The runtime finds those nodes once per
step by comparing the cluster's mix table with the previous step's
(:meth:`TelemetryRecorder.changed`), so nothing on the event path
tracks them.

Lives in the observability layer (DESIGN.md §10).  The recorder is only
constructed when a run actually wants episode telemetry
(``SimConfig(telemetry=True)``) — :attr:`TelemetryRecorder.created`
counts constructions so tests can assert that disabled-observability
runs allocate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError


@dataclass
class _OpenSegment:
    start: float
    bw: float
    cores: float


@dataclass
class TelemetryRecorder:
    """Records (start, end, bandwidth GB/s, used cores) segments per node."""

    #: Process-wide construction counter (monotone, test instrumentation
    #: only): the no-allocation contract of DESIGN.md §10 is asserted by
    #: snapshotting this around a run with observability disabled.
    created: ClassVar[int] = 0

    num_nodes: int
    _open: Dict[int, _OpenSegment] = field(default_factory=dict)
    _segments: Dict[int, List[Tuple[float, float, float, float]]] = field(
        default_factory=dict
    )
    #: The ``(mix ids, keys)`` snapshot :meth:`changed` compares with.
    _last: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        TelemetryRecorder.created += 1

    def record(self, node_id: int, now: float, bw: float,
               cores: float = 0.0) -> None:
        """Close the node's open segment at ``now`` and open a new one at
        bandwidth ``bw`` / ``cores`` busy cores."""
        if not 0 <= node_id < self.num_nodes:
            raise SimulationError(f"node id {node_id} out of range")
        if bw < 0:
            raise SimulationError("bandwidth must be non-negative")
        if cores < 0:
            raise SimulationError("core count must be non-negative")
        open_seg = self._open.get(node_id)
        if open_seg is not None:
            if now < open_seg.start - 1e-9:
                raise SimulationError("telemetry time went backwards")
            if now > open_seg.start:
                self._segments.setdefault(node_id, []).append(
                    (open_seg.start, now, open_seg.bw, open_seg.cores)
                )
        self._open[node_id] = _OpenSegment(now, bw, cores)

    def changed(self, mix: np.ndarray,
                keys: List[Optional[tuple]]) -> List[int]:
        """Nodes whose resident mix changed since the previous call,
        given a mix table's per-node ids ``mix`` and its per-id ``keys``
        (:class:`repro.sim.node.MixTable`): a node on a different id, or
        on an id freed and interned again in between (the id's key is
        another object).  The first call reports every node."""
        last = self._last
        self._last = (mix.copy(), list(keys))
        if last is None:
            return list(range(len(mix)))
        diff = mix != last[0]
        reused = [m for m, (key, old) in enumerate(zip(keys, last[1]))
                  if key is not old]
        if reused:
            diff |= np.isin(mix, reused)
        return np.flatnonzero(diff).tolist()

    def close(self, now: float) -> None:
        """Close all open segments at the end of the simulation."""
        for node_id, seg in list(self._open.items()):
            if now > seg.start:
                self._segments.setdefault(node_id, []).append(
                    (seg.start, now, seg.bw, seg.cores)
                )
        self._open.clear()

    def episode_matrix(
        self, episode_seconds: float, end_time: float,
        metric: str = "bw",
    ) -> np.ndarray:
        """Node x episode matrix of an averaged telemetry channel.

        ``metric`` selects the channel: ``"bw"`` (GB/s, the paper's
        Fig 17) or ``"cores"`` (busy cores, for fragmentation analysis).
        Row ``i`` is node ``i``; column ``j`` covers simulated time
        ``[j * episode_seconds, (j+1) * episode_seconds)``.
        """
        if episode_seconds <= 0:
            raise SimulationError("episode length must be positive")
        if end_time <= 0:
            raise SimulationError("end time must be positive")
        if metric not in ("bw", "cores"):
            raise SimulationError(f"unknown telemetry metric {metric!r}")
        value_index = 2 if metric == "bw" else 3
        n_episodes = int(np.ceil(end_time / episode_seconds))
        matrix = np.zeros((self.num_nodes, n_episodes))
        for node_id, segments in self._segments.items():
            for segment in segments:
                start, end = segment[0], min(segment[1], end_time)
                value = segment[value_index]
                if end <= start:
                    continue
                first = int(start // episode_seconds)
                last = int(np.ceil(end / episode_seconds))
                for ep in range(first, min(last, n_episodes)):
                    lo = max(start, ep * episode_seconds)
                    hi = min(end, (ep + 1) * episode_seconds)
                    if hi > lo:
                        matrix[node_id, ep] += (
                            value * (hi - lo) / episode_seconds
                        )
        return matrix

    def bandwidth_variance(
        self, episode_seconds: float, end_time: float, peak_bw: float
    ) -> float:
        """Standard deviation of episode-average bandwidth divided by the
        node peak — the paper's load-balance metric (0.40 CE vs 0.25 SNS).
        """
        if peak_bw <= 0:
            raise SimulationError("peak bandwidth must be positive")
        matrix = self.episode_matrix(episode_seconds, end_time)
        return float(np.std(matrix) / peak_bw)
