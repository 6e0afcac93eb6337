"""Leaf-spine fabric model (ROADMAP item 3, psim direction).

The paper's interconnect is a flat full-bisection abstraction: every
node owns one node-link of injection bandwidth and spreading is free on
the network.  Real fat-tree clusters violate exactly that assumption —
rack ToR uplinks and the spine are *oversubscribed*, so a job spread
across racks contends for shared links that a compact placement never
touches.

:class:`FabricSpec` describes a two-level leaf-spine fabric:

* nodes are packed into racks of ``rack_size`` in node-id order
  (node ``n`` lives in rack ``n // rack_size``);
* each rack's ToR uplink carries ``rack_nodes / oversubscription``
  node-links toward the spine;
* the spine's bisection carries ``num_nodes / oversubscription``
  node-links.

Routes are deterministic: traffic between two nodes in the same rack
crosses only the ToR; traffic between racks crosses source ToR →
spine → destination ToR.  Link *loads* are accounted in node-link
units (fractions of one node's injection bandwidth, the same unit as
the per-node ``net`` bookings), so a rack whose members inject a combined
load ``L`` puts utilization ``L * oversubscription / rack_nodes`` on
its uplink.

``oversubscription == 1.0`` is the degenerate flat fabric: full
bisection, no link can be more utilized than the busiest node's own
injection share, and every consumer of :class:`FabricSpec` is required
to behave bit-identically to a run with no fabric at all
(:meth:`FabricSpec.active_for` returns False).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import HardwareModelError


@dataclass(frozen=True)
class FabricSpec:
    """Two-level leaf-spine fabric attached to a
    :class:`~repro.hardware.topology.ClusterSpec`.

    Parameters
    ----------
    rack_size:
        Nodes per rack (node ``n`` maps to rack ``n // rack_size``).
    oversubscription:
        Ratio of a rack's aggregate injection bandwidth to its ToR
        uplink (and of the cluster's aggregate to the spine bisection).
        ``1.0`` is full bisection — the degenerate flat fabric.
    """

    rack_size: int = 32
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.rack_size < 1:
            raise HardwareModelError("rack_size must be >= 1")
        if self.oversubscription < 1.0:
            raise HardwareModelError(
                "oversubscription must be >= 1.0 (1.0 is full bisection)"
            )

    # ------------------------------------------------------------------
    # Degenerate-case detection

    @property
    def is_flat(self) -> bool:
        """Full bisection: the fabric adds nothing over the flat model."""
        return self.oversubscription == 1.0

    def active_for(self, num_nodes: int) -> bool:
        """Whether the fabric can ever bind on a ``num_nodes`` cluster.

        Flat fabrics never bind (at 1:1 a link's utilization is a mean
        of its members' injection shares, so the busiest *node* always
        binds first), and a cluster that fits in one rack has no
        cross-rack traffic.  Consumers skip every fabric code path when
        this is False — that is what makes flat-fabric runs bit-identical
        to no-fabric runs.
        """
        return not self.is_flat and num_nodes > self.rack_size

    # ------------------------------------------------------------------
    # Rack geometry

    def num_racks(self, num_nodes: int) -> int:
        if num_nodes < 1:
            raise HardwareModelError("num_nodes must be >= 1")
        return -(-num_nodes // self.rack_size)

    def rack_of(self, node_id: int) -> int:
        return node_id // self.rack_size

    def rack_map(self, num_nodes: int) -> np.ndarray:
        """``int64[num_nodes]`` node → rack lookup table."""
        return np.arange(num_nodes, dtype=np.int64) // self.rack_size

    def rack_span(self, rack: int, num_nodes: int) -> Tuple[int, int]:
        """Half-open node-id range ``[lo, hi)`` of ``rack``."""
        lo = rack * self.rack_size
        if not 0 <= lo < num_nodes:
            raise HardwareModelError(f"rack {rack} out of range")
        return lo, min(lo + self.rack_size, num_nodes)

    def rack_population(self, num_nodes: int) -> np.ndarray:
        """``int64[num_racks]`` nodes per rack (last rack may be short)."""
        pop = np.full(self.num_racks(num_nodes), self.rack_size,
                      dtype=np.int64)
        rem = num_nodes % self.rack_size
        if rem:
            pop[-1] = rem
        return pop

    # ------------------------------------------------------------------
    # Link utilization (node-link units)

    def tor_utilization(self, load: float, rack_nodes: int) -> float:
        """Uplink utilization for a rack injecting ``load`` node-link
        units toward the spine (1.0 = saturated)."""
        return load * self.oversubscription / rack_nodes

    def spine_utilization(self, load: float, num_nodes: int) -> float:
        """Spine utilization for ``load`` node-link units of cross-rack
        traffic (1.0 = saturated)."""
        return load * self.oversubscription / num_nodes

    # ------------------------------------------------------------------
    # Physical link loads of running cross-rack jobs

    @staticmethod
    def uplink_loads(frac: float, n_nodes: int,
                     counts: np.ndarray) -> np.ndarray:
        """Per-rack uplink loads of one job on ``n_nodes`` nodes with
        ``counts[i]`` of them in its ``i``-th rack: each node sends
        ``(n - s) / (n - 1)`` of its traffic ``frac`` off-rack (uniform
        partner model), so a rack holding ``s`` of them carries
        ``frac * ((n - s) / (n - 1)) * s``.  Elementwise this is the
        scalar expression's exact IEEE op sequence (int64 -> float64 is
        exact at node-id scale)."""
        return frac * ((n_nodes - counts) / (n_nodes - 1)) * counts

    def link_utilization(
        self, num_nodes: int,
        racks: Sequence[np.ndarray], loads: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, float, np.ndarray]:
        """Link utilizations for a set of running cross-rack jobs.

        ``racks[j]`` / ``loads[j]`` are job ``j``'s rack ids (at least
        two) and their :meth:`uplink_loads`.  Returns ``(tor_util,
        spine_util, route)``: per-rack ToR uplink utilization, spine
        utilization, and each job's route load ``max(spine_util,
        tor_util over its racks)``.

        Bit-identical to accumulating the jobs one by one in the given
        order (DESIGN.md §13): ``bincount`` adds its weights in input
        order, the spine total is a sequential ``cumsum`` (``np.sum``
        is pairwise), the int64 populations convert to float64 exactly,
        and maxima are exact.
        """
        pop = self.rack_population(num_nodes)
        if not racks:
            return (np.zeros(pop.size),
                    self.spine_utilization(0.0, num_nodes), np.zeros(0))
        rack_ids = np.concatenate(racks)
        tor = np.bincount(rack_ids, weights=np.concatenate(loads),
                          minlength=pop.size)
        spine_util = self.spine_utilization(float(np.cumsum(tor)[-1]),
                                            num_nodes)
        tor_util = tor * self.oversubscription / pop
        starts = np.zeros(len(racks), dtype=np.intp)
        np.cumsum([r.size for r in racks[:-1]], out=starts[1:])
        route = np.maximum(np.maximum.reduceat(tor_util[rack_ids], starts),
                           spine_util)
        return tor_util, spine_util, route

    # ------------------------------------------------------------------
    # Deterministic routing

    def route(self, src: int, dst: int) -> Tuple[str, ...]:
        """The ordered link names traffic from ``src`` to ``dst``
        crosses.  Deterministic (no ECMP hashing): intra-rack traffic
        turns around at the ToR, inter-rack traffic crosses the spine.
        """
        if src == dst:
            return ()
        r_src, r_dst = self.rack_of(src), self.rack_of(dst)
        if r_src == r_dst:
            return (f"up:{src}", f"tor:{r_src}", f"down:{dst}")
        return (f"up:{src}", f"tor:{r_src}", "spine",
                f"tor:{r_dst}", f"down:{dst}")
