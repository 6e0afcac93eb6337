"""Configuration dataclasses for schedulers and simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs shared by the CE / CS / SNS policies (paper Sections 4-5).

    Attributes
    ----------
    default_alpha:
        Slowdown threshold used when a job does not specify one; the
        paper's default is 0.9 (at most 10 % degradation).
    beta:
        Weight of the LLC-way occupancy term in the node-selection metric
        ``Co + Bo + beta * Wo`` (2 in the paper's prototype).
    candidate_scales:
        Scale factors Uberun considers (1, 2, 4, 8 in the prototype).
    age_limit:
        Number of scheduling points a job may be passed over before it
        blocks the queue (anti-starvation; Section 4.4).
    bw_headroom:
        Fraction of node peak bandwidth the scheduler is allowed to
        book; 1.0 books up to the full peak.
    max_queue_scan:
        Maximum pending jobs examined per scheduling point (bounds the
        cost of congested queues in large trace replays).
    scale_tolerance:
        Profiled-time tolerance within which a scaling program prefers
        the smaller footprint (near-ties are not worth extra nodes).
    """

    default_alpha: float = 0.9
    beta: float = 2.0
    candidate_scales: Tuple[int, ...] = (1, 2, 4, 8)
    age_limit: int = 10
    bw_headroom: float = 1.0
    max_queue_scan: int = 128
    scale_tolerance: float = 0.05
    #: Intel-MBA-style hard bandwidth partitioning: jobs are throttled to
    #: their booked bandwidth.  Off by default (the paper's testbed lacked
    #: MBA, Section 4.4); turning it on eliminates bandwidth-overdraw
    #: alpha violations at some throughput cost.
    enforce_bw: bool = False
    #: The paper's residual-way giveaway (Section 4.4).  Disabling it is
    #: an ablation knob: dedicated ways only.
    share_residual: bool = True
    #: Manage the inter-node network link as a third booked resource —
    #: the orthogonal dimension Section 3.3 says SNS accommodates.
    manage_network: bool = False
    #: Locality-aware spreading on a leaf-spine fabric (DESIGN.md §13):
    #: node selection fills within one rack before crossing the spine
    #: and breaks occupancy-metric ties toward racks contributing more
    #: candidates.  Not inert without an active fabric: the idle pick
    #: then ranks idle nodes by node id instead of arrival order, so a
    #: flat run can place differently (DESIGN.md §13).  Off by default.
    locality_aware: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.default_alpha <= 1.0:
            raise ConfigError("default_alpha must be in (0, 1]")
        if self.beta < 0:
            raise ConfigError("beta must be non-negative")
        if not self.candidate_scales:
            raise ConfigError("candidate_scales must not be empty")
        if any(k < 1 for k in self.candidate_scales):
            raise ConfigError("scale factors must be >= 1")
        if tuple(sorted(self.candidate_scales)) != self.candidate_scales:
            raise ConfigError("candidate_scales must be sorted ascending")
        if self.age_limit < 1:
            raise ConfigError("age_limit must be >= 1")
        if not 0.0 < self.bw_headroom <= 1.0:
            raise ConfigError("bw_headroom must be in (0, 1]")
        if self.max_queue_scan < 1:
            raise ConfigError("max_queue_scan must be >= 1")
        if self.scale_tolerance < 0:
            raise ConfigError("scale_tolerance must be non-negative")


@dataclass(frozen=True)
class RetryPolicy:
    """How the runtime requeues jobs evicted by a node failure.

    Attributes
    ----------
    max_retries:
        Additional attempts a job gets after its first eviction; once
        exhausted the job is marked :attr:`~repro.sim.job.JobState.FAILED`
        and its remaining work is abandoned.
    backoff_s:
        Simulated delay between an eviction and the job's resubmission
        (models requeue/cleanup latency in a production scheduler).
    """

    max_retries: int = 3
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.backoff_s < 0:
            raise ConfigError("backoff_s must be non-negative")


@dataclass(frozen=True)
class TraceConfig:
    """Structured-trace settings (DESIGN.md §10).

    Attributes
    ----------
    level:
        How much the tracer records: ``"decisions"`` (scheduler
        decisions + job lifecycle + faults; byte-stable across cache
        modes), ``"events"`` (adds per-scheduling-point summaries), or
        ``"full"`` (adds event batches and speed refreshes).
    """

    level: str = "events"

    def __post_init__(self) -> None:
        if self.level not in ("decisions", "events", "full"):
            raise ConfigError(
                f"trace level must be decisions, events, or full; "
                f"got {self.level!r}"
            )


@dataclass(frozen=True)
class SimConfig:
    """Simulation-wide settings."""

    #: Hard wall on simulated time (guards against scheduler livelock).
    max_sim_time: float = 1e9
    #: Record per-node bandwidth telemetry (costs memory on big runs).
    #: Off by default — observability is opt-in so plain runs allocate
    #: no recorder at all (DESIGN.md §10); the telemetry experiments
    #: (Figs 17-18) enable it explicitly.
    telemetry: bool = False
    #: Structured-trace settings; ``None`` (default) records nothing and
    #: the run pays only an ``is None`` check per emission site.
    trace: Optional[TraceConfig] = None

    def __post_init__(self) -> None:
        if self.max_sim_time <= 0:
            raise ConfigError("max_sim_time must be positive")
