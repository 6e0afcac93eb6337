"""Analytic per-program performance model (:class:`ProgramSpec`).

This is the synthetic substitute for the paper's real benchmark binaries.
Each program is described by a small set of microarchitecture-level
parameters; everything the simulator and the profiler observe (runtime,
IPC, DRAM bandwidth, LLC miss rate, communication share) is *derived* from
these parameters through a two-resource roofline:

* a compute-rate cap ``R_cpu = freq / (cpi_base + miss_latency * mpi(S))``
  where ``mpi(S)`` is the misses-per-instruction at per-process cache
  capacity ``S`` — this produces LLC-way sensitivity (paper Fig 6);
* a memory-rate cap ``R_mem = granted_bw / bytes_per_instruction`` —
  this produces bandwidth-bound behaviour and contention slowdowns
  (paper Figs 3, 4);
* an additive communication time with a contention-wait component that
  *shrinks* when the job spreads (paper's CG) and network components that
  grow with the node footprint (paper's BFS) — Figs 2 and 7.

The process rate is ``min(R_cpu, R_mem)``; granted bandwidth comes from
the node-level arbitration in :mod:`repro.perfmodel.contention`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro import units
from repro.errors import HardwareModelError
from repro.apps.curves import WorkingSetMissCurve


@dataclass(frozen=True)
class CommModel:
    """Communication-time model for a parallel program.

    The total communication time of a run at scale factor ``k`` on ``n``
    nodes, expressed as a fraction of the program's reference (CE solo)
    runtime ``T_ref``:

    ``t_comm = T_ref * (f_comm * ((1 - wait_factor) + wait_factor / k)
               + net_coeff * (1 - 1/n) + net_lin * (n - 1))``

    * ``f_comm`` — communication share of the CE solo run (mpiP-style,
      Fig 7: under 10 % for the NPB programs).
    * ``wait_factor`` — the part of ``f_comm`` that is late-sender /
      late-receiver *wait* caused by intra-node contention; it melts away
      proportionally to the scale factor (the paper observes this for CG).
    * ``net_coeff`` — one-time inter-node traffic cost of leaving a single
      node, saturating in ``n`` (halved data stays local at n=2, etc.).
    * ``net_lin`` — per-extra-node cost for communication patterns whose
      volume grows with the footprint (graph partition boundaries: BFS).
      The growth saturates after ``net_lin_span`` extra nodes: once a
      job is wide, its partition-boundary surface per node stops
      growing, so the cost cannot exceed ``net_lin * net_lin_span``.
    """

    f_comm: float = 0.0
    wait_factor: float = 0.0
    net_coeff: float = 0.0
    net_lin: float = 0.0
    net_lin_span: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_comm < 1.0:
            raise HardwareModelError("f_comm must be in [0, 1)")
        if not 0.0 <= self.wait_factor <= 1.0:
            raise HardwareModelError("wait_factor must be in [0, 1]")
        if self.net_coeff < 0 or self.net_lin < 0:
            raise HardwareModelError("network coefficients must be non-negative")
        if self.net_lin_span <= 0:
            raise HardwareModelError("net_lin_span must be positive")
        if self.worst_case_fraction() >= 1.0:
            raise HardwareModelError(
                "communication parameters admit a comm fraction >= 1"
            )

    def worst_case_fraction(self) -> float:
        """Upper bound of :meth:`comm_fraction` over all footprints."""
        return self.f_comm + self.net_coeff + self.net_lin * self.net_lin_span

    def network_fraction(self, n_nodes: int) -> float:
        """The inter-node (wire) part of the communication time, as a
        fraction of the reference runtime.  This doubles as the job's
        average per-node link utilization: while communicating it drives
        the link flat out, so over the whole run it occupies this
        fraction of the link (used for network contention/booking)."""
        if n_nodes < 1:
            raise HardwareModelError("node count must be >= 1")
        return self.net_coeff * (1.0 - 1.0 / n_nodes) + self.net_lin * min(
            n_nodes - 1.0, self.net_lin_span
        )

    def comm_fraction(self, scale_factor: float, n_nodes: int) -> float:
        """Communication time as a fraction of the reference runtime."""
        if scale_factor < 1 or n_nodes < 1:
            raise HardwareModelError("scale factor and node count must be >= 1")
        retained = self.f_comm * (
            (1.0 - self.wait_factor) + self.wait_factor / scale_factor
        )
        return retained + self.network_fraction(n_nodes)


@dataclass(frozen=True)
class ProgramSpec:
    """Complete analytic model of one program.

    Parameters
    ----------
    name:
        Short program code as used in the paper (e.g. ``"MG"``).
    framework:
        One of ``"mpi"``, ``"spark"``, ``"tensorflow"``, ``"sequential"``.
    cpi_base:
        Cycles per instruction with a perfect LLC.
    mpki_max:
        LLC misses per kilo-instruction with (near-)zero cache.
    miss_curve:
        Working-set law scaling ``mpki_max`` with per-process capacity.
    miss_latency:
        Exposed stall cycles per LLC miss (after MLP overlap).
    comm:
        Communication model (zero for sequential replicas).
    freq_ghz:
        Core clock.
    remote_traffic_boost:
        Extra DRAM *traffic* factor incurred by multi-node execution,
        applied as ``1 + boost * (1 - 1/n_nodes)``: models BFS's higher
        bandwidth and LLC miss rate when spread (paper Figs 4, 5).
        Communication buffers stream through the cache, so they add
        traffic without stalling the pipeline proportionally.
    remote_stall_boost:
        The (smaller) fraction of those extra misses that *does* expose
        stall latency, slowing multi-node computation — the paper notes
        BFS's computation time on two nodes exceeds its one-node time.
    max_nodes:
        Hard cap on node footprint (1 for the single-node TensorFlow
        programs GAN and RNN), ``None`` if unrestricted.
    solo_time_16p:
        Calibrated CE solo (1-node, exclusive, full ways) runtime in
        seconds for the reference 16-process run — the paper sizes inputs
        so programs run 50..1200 s (Section 6.1).
    ref_procs:
        Process count of the reference run (16 throughout the paper's
        characterization).
    """

    name: str
    framework: str
    cpi_base: float
    mpki_max: float
    miss_curve: WorkingSetMissCurve
    miss_latency: float
    comm: CommModel = field(default_factory=CommModel)
    freq_ghz: float = 2.4
    remote_traffic_boost: float = 0.0
    remote_stall_boost: float = 0.0
    max_nodes: Optional[int] = None
    solo_time_16p: float = 300.0
    ref_procs: int = 16

    def __post_init__(self) -> None:
        if self.framework not in ("mpi", "spark", "tensorflow", "sequential"):
            raise HardwareModelError(f"unknown framework {self.framework!r}")
        if min(self.cpi_base, self.freq_ghz, self.miss_latency) < 0:
            raise HardwareModelError("timing parameters must be non-negative")
        if self.cpi_base <= 0:
            raise HardwareModelError("cpi_base must be positive")
        if self.mpki_max < 0:
            raise HardwareModelError("mpki_max must be non-negative")
        if self.remote_traffic_boost < 0:
            raise HardwareModelError("remote_traffic_boost must be non-negative")
        if self.remote_stall_boost < 0:
            raise HardwareModelError("remote_stall_boost must be non-negative")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise HardwareModelError("max_nodes must be >= 1 when set")
        if self.solo_time_16p <= 0:
            raise HardwareModelError("solo_time_16p must be positive")
        if self.ref_procs <= 0:
            raise HardwareModelError("ref_procs must be positive")

    # -- microarchitectural derivations ------------------------------------

    @property
    def freq_hz(self) -> float:
        return self.freq_ghz * 1e9

    def traffic_multiplier(self, n_nodes: int) -> float:
        """DRAM-traffic inflation from multi-node execution.

        Communication-related code/data access adds extra LLC misses when
        a job spans nodes (the paper measures this for BFS: both its miss
        rate and its bandwidth rise when spread, Figs 4-5).
        """
        if n_nodes < 1:
            raise HardwareModelError("n_nodes must be >= 1")
        return 1.0 + self.remote_traffic_boost * (1.0 - 1.0 / n_nodes)

    def stall_multiplier(self, n_nodes: int) -> float:
        """Stall-path miss inflation from multi-node execution (the part
        of the extra traffic the pipeline cannot hide)."""
        if n_nodes < 1:
            raise HardwareModelError("n_nodes must be >= 1")
        return 1.0 + self.remote_stall_boost * (1.0 - 1.0 / n_nodes)

    def mpi(self, capacity_mb: float, n_nodes: int = 1) -> float:
        """Misses per instruction (traffic path) at per-process capacity
        ``capacity_mb`` for a job spanning ``n_nodes`` nodes."""
        return (
            self.mpki_max
            / 1000.0
            * self.miss_curve.miss_fraction(capacity_mb)
            * self.traffic_multiplier(n_nodes)
        )

    def mpi_stall(self, capacity_mb: float, n_nodes: int = 1) -> float:
        """Misses per instruction that expose stall latency."""
        return (
            self.mpki_max
            / 1000.0
            * self.miss_curve.miss_fraction(capacity_mb)
            * self.stall_multiplier(n_nodes)
        )

    def bytes_per_instr(self, capacity_mb: float, n_nodes: int = 1) -> float:
        """DRAM bytes transferred per instruction."""
        return self.mpi(capacity_mb, n_nodes) * units.CACHE_LINE_BYTES

    def cpu_rate(self, capacity_mb: float, n_nodes: int = 1) -> float:
        """Compute-capped instruction rate per process (instructions/s)."""
        cpi = self.cpi_base + self.miss_latency * self.mpi_stall(
            capacity_mb, n_nodes
        )
        return self.freq_hz / cpi

    def ipc(self, capacity_mb: float, granted_bw_gbps: Optional[float] = None,
            n_nodes: int = 1) -> float:
        """Observable instructions-per-cycle of one process.

        With ``granted_bw_gbps`` (per-process granted DRAM bandwidth) the
        memory roofline is applied; without it the process is assumed
        bandwidth-unconstrained.
        """
        rate = self.cpu_rate(capacity_mb, n_nodes)
        if granted_bw_gbps is not None:
            bpi = self.bytes_per_instr(capacity_mb, n_nodes)
            if bpi > 0:
                rate = min(rate, granted_bw_gbps * units.GB / bpi)
        return rate / self.freq_hz

    def demand_gbps_per_proc(self, capacity_mb: float, n_nodes: int = 1,
                             core_peak_bw: float = units.REF_CORE_PEAK_BW) -> float:
        """Unconstrained per-process DRAM bandwidth demand (GB/s), capped
        at the single-core streaming peak."""
        demand = self.cpu_rate(capacity_mb, n_nodes) * self.bytes_per_instr(
            capacity_mb, n_nodes
        ) / units.GB
        return min(demand, core_peak_bw)

    def miss_rate_percent(self, capacity_mb: float, n_nodes: int = 1) -> float:
        """LLC miss *rate* (misses / LLC accesses) in percent, for Fig 5.

        Communication adds accesses that (mostly) miss; with a base miss
        fraction ``f`` and extra misses ``f * (m - 1)`` from the traffic
        multiplier ``m``, the rate over the inflated access count is
        ``f * m / (1 + f * (m - 1))`` — rising with the footprint but
        bounded by 100 % (BFS in the paper climbs moderately, Fig 5).
        """
        frac = self.miss_curve.miss_fraction(capacity_mb)
        mult = self.traffic_multiplier(n_nodes)
        rate = frac * mult / (1.0 + frac * (mult - 1.0))
        return min(100.0, rate * 100.0)

    # -- work calibration ----------------------------------------------------

    def instr_per_proc(self, procs: int) -> float:
        """Total instructions one process must retire for a ``procs``-wide
        job (strong scaling: total work is fixed per program input)."""
        if procs <= 0:
            raise HardwareModelError("procs must be positive")
        return self._ref_instr_per_proc * self.ref_procs / procs

    @cached_property
    def _ref_instr_per_proc(self) -> float:
        """Instructions per process of the reference 16-process run,
        back-computed so the analytic CE solo time equals
        ``solo_time_16p`` (calibration closure).  Computed once per
        instance: the value lives in the instance ``__dict__`` (so it
        pickles with the spec), outside the dataclass fields, eq and
        hash."""
        # Reference conditions: ref_procs processes sharing a full
        # reference node exclusively.
        node = _REFERENCE_NODE
        capacity = node.llc_mb / self.ref_procs
        r_cpu = self.cpu_rate(capacity)
        demand = self.ref_procs * self.demand_gbps_per_proc(capacity, 1)
        supply = node.bandwidth.aggregate(self.ref_procs)
        granted_per_proc = min(demand, supply) / self.ref_procs
        bpi = self.bytes_per_instr(capacity, 1)
        if bpi > 0:
            rate = min(r_cpu, granted_per_proc * units.GB / bpi)
        else:
            rate = r_cpu
        compute_time_fraction = 1.0 - self.comm.comm_fraction(1.0, 1)
        return rate * self.solo_time_16p * compute_time_fraction


# Deferred import-free reference node: constructing hardware lazily would
# create an import cycle (hardware does not depend on apps, so this is the
# one directional import allowed).
from repro.hardware.node_spec import NodeSpec as _NodeSpec  # noqa: E402

_REFERENCE_NODE = _NodeSpec()
