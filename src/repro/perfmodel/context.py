"""Per-simulation performance-model context.

:class:`PerfContext` carries the batched-kernel counters one simulation
threads through its layers.  Each :class:`repro.sim.runtime.Simulation`
constructs its own context and injects it into every layer that
consults it (``ClusterState`` at construction, the schedulers via
``cluster.ctx``, ``arbitrate_nodes`` as an explicit argument); the SNS
demand cache is tied to its lifetime.  Nothing is process-global: two
simulations in one process — including two stepped in alternation —
can never observe each other's counters or caches.

There is one mode: the fast paths always run.  The independent
reference is the test-only oracle under ``tests/oracle``.
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
    """Batched-kernel counters of one simulation."""

    __slots__ = ("batch_counters",)

    def __init__(self) -> None:
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
