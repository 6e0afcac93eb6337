"""Per-simulation performance-model context.

:class:`PerfContext` owns every piece of mutable kernel state the fast
paths of the simulator rely on: the four exact memoization caches of the
performance model (demand curves, process rates, network fractions,
bandwidth supply), their hit/miss statistics, the batched-kernel
counters, the ``max_entries`` eviction policy, and the ``enabled`` flag
that routes every call to the unmemoized reference kernels when cleared.

Each :class:`repro.sim.runtime.Simulation` constructs its own context
and threads it through every layer that consults kernel state
(``ClusterState`` at construction, the schedulers via ``cluster.ctx``,
``job_time`` / ``arbitrate_nodes`` as an explicit argument).  Nothing is
process-global: two simulations in one process — including two stepped
in alternation — can never observe each other's cache entries,
statistics, or cache-mode flag.

Cache semantics are unchanged from the original module-global design
(see DESIGN.md §7): every cache is exact — a hit returns the
bit-identical float the reference computation would produce — programs
are keyed by identity with strong references held and verified with
``is`` on lookup.

Cache mode is resolved once per simulation by
:func:`resolve_cache_mode`: ``SimConfig.perf_caches`` is the only
control (``None`` means enabled).  The old
``REPRO_DISABLE_PERF_CACHES`` environment shim was removed after its
deprecation release; the variable is now ignored.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.hardware.node_spec import NodeSpec

#: Default safety valve: a cache that somehow exceeds this many entries
#: is cleared wholesale (distinct signatures are bounded in practice, so
#: this should never trigger outside adversarial workloads).
MAX_ENTRIES = 1 << 20


def resolve_cache_mode(perf_caches: Optional[bool] = None) -> bool:
    """Resolve the cache mode for one simulation.

    ``SimConfig.perf_caches`` is the sole control: ``None`` (the
    default) enables the memoized kernels, ``False`` routes every call
    to the unmemoized reference kernels.
    """
    if perf_caches is not None:
        return bool(perf_caches)
    return True


class PerfContext:
    """All mutable perf-model kernel state of one simulation.

    The kernel wrappers (:meth:`demand_gbps_per_proc`,
    :meth:`process_rate`, :meth:`network_fraction`,
    :meth:`bandwidth_supply`) are exact caches: with ``enabled`` cleared
    they route straight to the reference kernels, and a hit always
    returns the bit-identical value the reference would produce.
    """

    __slots__ = (
        "enabled", "max_entries",
        "_demand_cache", "_rate_cache", "_net_cache", "_supply_cache",
        "_stats", "batch_counters",
    )

    def __init__(self, enabled: bool = True,
                 max_entries: int = MAX_ENTRIES) -> None:
        self.enabled = bool(enabled)
        self.max_entries = max_entries
        # (id(program), capacity_mb, n_nodes, core_peak) -> (program, demand)
        self._demand_cache: Dict[tuple, tuple] = {}
        # (id(program), procs, capacity_mb, granted, n_nodes) -> (program, rate)
        self._rate_cache: Dict[tuple, tuple] = {}
        # (id(program), n_nodes) -> (program, network fraction)
        self._net_cache: Dict[tuple, tuple] = {}
        # (id(spec), total_procs) -> (spec, aggregate supply GB/s)
        self._supply_cache: Dict[tuple, tuple] = {}
        self._stats = {
            "demand": [0, 0], "rate": [0, 0], "net": [0, 0],
            "supply": [0, 0],
        }  # [hits, misses]
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

    # -- mode control -------------------------------------------------------

    def set_enabled(self, flag: bool) -> None:
        """Enable/disable the memoized fast path (debug knob)."""
        self.enabled = bool(flag)

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Run a block on the unmemoized reference path."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # -- bookkeeping --------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached kernel result (and reset all statistics)."""
        self._demand_cache.clear()
        self._rate_cache.clear()
        self._net_cache.clear()
        self._supply_cache.clear()
        for counters in self._stats.values():
            counters[0] = counters[1] = 0
        for key in self.batch_counters:
            self.batch_counters[key] = 0

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size counters per cache (for benchmarks and tests)."""
        sizes = {
            "demand": len(self._demand_cache),
            "rate": len(self._rate_cache),
            "net": len(self._net_cache),
            "supply": len(self._supply_cache),
        }
        return {
            name: {"hits": h, "misses": m, "size": sizes[name]}
            for name, (h, m) in self._stats.items()
        }

    def counters(self) -> Dict[str, int]:
        """Flat memo hit/miss + batched-kernel counters, in the key
        scheme ``SimulationResult.counters`` reports (``memo_*_hits``,
        ``memo_*_misses``, ``batch_*``)."""
        out: Dict[str, int] = {}
        for name, (hits, misses) in self._stats.items():
            out[f"memo_{name}_hits"] = hits
            out[f"memo_{name}_misses"] = misses
        out.update(self.batch_counters)
        return out

    # -- kernel wrappers ----------------------------------------------------

    def demand_gbps_per_proc(self, program, capacity_mb: float,
                             n_nodes: int, core_peak: float) -> float:
        """Memoized ``program.demand_gbps_per_proc`` curve evaluation."""
        if not self.enabled:
            return program.demand_gbps_per_proc(
                capacity_mb, n_nodes, core_peak_bw=core_peak
            )
        key = (id(program), capacity_mb, n_nodes, core_peak)
        cache = self._demand_cache
        hit = cache.get(key)
        if hit is not None and hit[0] is program:
            self._stats["demand"][0] += 1
            return hit[1]
        value = program.demand_gbps_per_proc(
            capacity_mb, n_nodes, core_peak_bw=core_peak
        )
        if len(cache) >= self.max_entries:
            cache.clear()
        cache[key] = (program, value)
        self._stats["demand"][1] += 1
        return value

    def process_rate(self, program, procs: int, capacity_mb: float,
                     granted: float, n_nodes: int) -> float:
        """Memoized per-process roofline rate (``net_load`` does not
        affect the rate, so it is excluded from the key)."""
        from repro.perfmodel.execution import NodeConditions
        from repro.perfmodel.execution import process_rate as _reference

        if not self.enabled:
            return _reference(
                program, NodeConditions(procs, capacity_mb, granted), n_nodes
            )
        key = (id(program), procs, capacity_mb, granted, n_nodes)
        cache = self._rate_cache
        hit = cache.get(key)
        if hit is not None and hit[0] is program:
            self._stats["rate"][0] += 1
            return hit[1]
        value = _reference(
            program, NodeConditions(procs, capacity_mb, granted), n_nodes
        )
        if len(cache) >= self.max_entries:
            cache.clear()
        cache[key] = (program, value)
        self._stats["rate"][1] += 1
        return value

    def network_fraction(self, program, n_nodes: int) -> float:
        """Memoized ``program.comm.network_fraction`` evaluation (the
        value behind :func:`repro.perfmodel.contention.node_network_load`)."""
        if not self.enabled:
            return program.comm.network_fraction(n_nodes)
        key = (id(program), n_nodes)
        cache = self._net_cache
        hit = cache.get(key)
        if hit is not None and hit[0] is program:
            self._stats["net"][0] += 1
            return hit[1]
        value = program.comm.network_fraction(n_nodes)
        if len(cache) >= self.max_entries:
            cache.clear()
        cache[key] = (program, value)
        self._stats["net"][1] += 1
        return value

    def bandwidth_supply(self, spec: NodeSpec, total_procs: int) -> float:
        """Memoized ``spec.bandwidth.aggregate(total_procs)`` — the
        node's saturating DRAM supply is a pure function of the active
        core count, and arbitration evaluates it for every dirty node of
        every refresh."""
        if not self.enabled:
            return spec.bandwidth.aggregate(total_procs)
        key = (id(spec), total_procs)
        cache = self._supply_cache
        hit = cache.get(key)
        if hit is not None and hit[0] is spec:
            self._stats["supply"][0] += 1
            return hit[1]
        value = spec.bandwidth.aggregate(total_procs)
        if len(cache) >= self.max_entries:
            cache.clear()
        cache[key] = (spec, value)
        self._stats["supply"][1] += 1
        return value
