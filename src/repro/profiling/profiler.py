"""Scaling-trial profiler (paper Sections 4.1-4.2, 5.1).

For each program the profiler runs a trial ladder over the candidate
scale factors (1x, 2x, 4x, 8x in Uberun), always in exclusive mode:

* a clean *timing run* per scale (LLC manipulation costs ~19 %, so times
  are captured without it);
* an LLC-manipulation run per scale producing the IPC-LLC and BW-LLC
  curves via :func:`repro.profiling.sampler.sample_llc_curves`.

The ladder stops early when spreading stops helping (configurable
degradation limit) or when per-node core counts get too small — the
paper's "scaling saturation".  In production these runs piggyback on
normal executions; here they are exclusive simulated runs, which is the
same observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.curves import PiecewiseLinearCurve
from repro.apps.program import ProgramSpec
from repro.apps.frameworks import framework_of
from repro.errors import ConfigError, ProfileError
from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.execution import predict_exclusive_time
from repro.profiling.classify import ScalingClass, classify, ideal_scale
from repro.profiling.sampler import sample_llc_curves


@dataclass(frozen=True)
class ScaleProfile:
    """Profiling results of one program at one scale factor."""

    scale: int
    n_nodes: int
    procs: int
    time_s: float
    ipc_llc: PiecewiseLinearCurve
    bw_llc: PiecewiseLinearCurve  # GB/s per process

    def __post_init__(self) -> None:
        if self.scale < 1 or self.n_nodes < 1 or self.procs < 1:
            raise ProfileError("scale, nodes, and procs must be >= 1")
        if self.time_s <= 0:
            raise ProfileError("profiled time must be positive")


@dataclass
class ProgramProfile:
    """Everything the SNS database stores about one program."""

    name: str
    ref_procs: int
    scales: Dict[int, ScaleProfile] = field(default_factory=dict)

    def add(self, profile: ScaleProfile) -> None:
        if profile.scale in self.scales:
            raise ProfileError(
                f"{self.name}: scale {profile.scale} profiled twice"
            )
        self.scales[profile.scale] = profile

    @property
    def scaling_class(self) -> ScalingClass:
        return classify({k: p.time_s for k, p in self.scales.items()})

    @property
    def ideal_scale(self) -> int:
        return ideal_scale({k: p.time_s for k, p in self.scales.items()})

    def preferred_scale_order(self, tolerance: float = 0.05) -> List[int]:
        """Scale factors in the order SNS should try them, taking the
        program's classification into account (Sections 4.2, 6.1):

        * *scaling* programs: descending profiled performance — spread
          them to their ideal scale whenever possible.  Scales whose
          profiled time is within ``tolerance`` of the best are ordered
          by ascending footprint: a near-tie is not worth the extra
          nodes (fragmentation and node-seconds both favour compact);
        * *neutral* programs: ascending scale — they are spread only
          passively, to harvest residual cores, never proactively (their
          sub-5 % profile-time differences are noise, not preference);
        * *compact* programs: ascending scale — preserve their compact
          execution, spreading is a last resort.
        """
        if self.scaling_class is ScalingClass.SCALING:
            best = min(p.time_s for p in self.scales.values())
            near = sorted(
                k for k, p in self.scales.items()
                if p.time_s <= best * (1.0 + tolerance)
            )
            rest = sorted(
                (k for k in self.scales if k not in near),
                key=lambda k: (self.scales[k].time_s, k),
            )
            return near + rest
        return sorted(self.scales)

    def get(self, scale: int) -> ScaleProfile:
        try:
            return self.scales[scale]
        except KeyError:
            raise ProfileError(
                f"{self.name}: no profile at scale {scale}"
            ) from None

    def constraining_resource(
        self, spec: NodeSpec, ways90_threshold: int = 8,
        bw_fraction: float = 0.5,
    ) -> Optional[str]:
        """Heuristic label of the resource bounding a scaling program:
        ``"membw"``, ``"llc"``, ``"membw+llc"``, or ``None``.

        A program is bandwidth-constrained when its solo demand at full
        ways exceeds ``bw_fraction`` of node peak, and LLC-constrained
        when reaching 90 % IPC needs more than ``ways90_threshold`` ways.
        """
        base = self.get(1)
        full = float(spec.llc_ways)
        f_ipc = base.ipc_llc(full)
        w90 = base.ipc_llc.min_x_reaching(0.9 * f_ipc)
        procs_on_node = -(-base.procs // base.n_nodes)
        bw = base.bw_llc(full) * procs_on_node
        tags = []
        if bw >= bw_fraction * spec.peak_bw:
            tags.append("membw")
        if w90 > ways90_threshold:
            tags.append("llc")
        return "+".join(tags) if tags else None


def profile_program(
    program: ProgramSpec,
    procs: int,
    spec: NodeSpec,
    max_cluster_nodes: int,
    candidate_scales: Sequence[int] = (1, 2, 4, 8),
    min_cores_per_node: int = 2,
    max_degradation: float = 0.25,
) -> ProgramProfile:
    """Run the full trial ladder for one program.

    ``max_degradation`` stops the ladder once a trial is that much slower
    than the best time seen (spreading has "saturated").
    """
    if procs <= 0:
        raise ConfigError("procs must be positive")
    framework = framework_of(program.framework)
    base_nodes = spec.min_nodes_for(procs)
    profile = ProgramProfile(name=program.name, ref_procs=procs)
    best_time: Optional[float] = None
    for k in sorted(candidate_scales):
        n_nodes = k * base_nodes
        if n_nodes > max_cluster_nodes:
            break
        if program.max_nodes is not None and n_nodes > program.max_nodes:
            break
        if procs // n_nodes < min_cores_per_node:
            break
        try:
            framework.validate_footprint(procs, n_nodes)
        except ConfigError:
            continue
        time_s = predict_exclusive_time(program, procs, n_nodes, spec)
        curves = sample_llc_curves(program, procs, n_nodes, spec)
        profile.add(
            ScaleProfile(
                scale=k,
                n_nodes=n_nodes,
                procs=procs,
                time_s=time_s,
                ipc_llc=curves["ipc"],
                bw_llc=curves["bw"],
            )
        )
        if best_time is None or time_s < best_time:
            best_time = time_s
        elif time_s > best_time * (1.0 + max_degradation):
            break  # saturated: further spreading will not help
    if not profile.scales:
        raise ProfileError(
            f"no valid scale for {program.name} with {procs} processes"
        )
    return profile
