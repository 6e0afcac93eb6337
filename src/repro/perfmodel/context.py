"""Per-simulation performance-model context.

:class:`PerfContext` carries the two pieces of kernel state one
simulation threads through its layers: the ``enabled`` flag that picks
the fast paths (the cluster's signature view cache and batched
arbitration, the SNS demand cache, the runtime's incremental
running-job table) or the unmemoized reference paths, and the batched-
kernel counters.

Each :class:`repro.sim.runtime.Simulation` constructs its own context
and injects it into every layer that consults it (``ClusterState`` at
construction, the schedulers via ``cluster.ctx``,
``arbitrate_nodes`` as an explicit argument).  Nothing is
process-global: two simulations in one process — including two stepped
in alternation — can never observe each other's counters or cache mode.

``SimConfig.perf_caches`` is the only control; the old
``REPRO_DISABLE_PERF_CACHES`` environment shim was removed after its
deprecation release and the variable is ignored.
"""

from __future__ import annotations

from typing import Dict

#: Safety valve of the caches that key on signatures (the cluster's
#: view cache, the SNS demand cache): one that somehow exceeds this
#: many entries is cleared wholesale.  Distinct signatures are bounded
#: in practice, so this should never trigger outside adversarial
#: workloads.
MAX_ENTRIES = 1 << 20


class PerfContext:
    """Cache mode and batched-kernel counters of one simulation."""

    __slots__ = ("enabled", "batch_counters")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        #: Batched-kernel instrumentation: arbitration batch calls,
        #: nodes and slices solved (repro.perfmodel.batch), plus
        #: vectorized curve-kernel evaluations (repro.perfmodel.
        #: curves_vec), batched finish-time updates (the runtime's
        #: refresh hot path), and fabric link-state recomputations /
        #: per-job route-load evaluations (DESIGN.md §13; zero unless
        #: the cluster runs an active leaf-spine fabric).
        self.batch_counters: Dict[str, int] = {
            "batch_calls": 0, "batch_nodes": 0, "batch_slices": 0,
            "vec_curve_evals": 0, "vec_finish_updates": 0,
            "fabric_link_refreshes": 0, "fabric_route_evals": 0,
        }

    def counters(self) -> Dict[str, int]:
        """The batched-kernel counters, in the key scheme
        ``SimulationResult.counters`` reports (``batch_*`` and friends)."""
        return dict(self.batch_counters)
