"""Piggybacked online profiling (paper Sections 4.1-4.2, 4.4).

Rather than dedicated profiling runs, Uberun piggybacks the scaling
trial ladder on *normal* executions: a new program's first run is
scheduled exclusively at scale 1 (the CE execution model), its next run
at 2x, and so on, while the monitor samples the LLC curves.  When a job
happens to run exclusively, the monitor also refreshes the profile on
its termination.  Exploration stops when spreading saturates, after
which the accumulated profile drives normal SNS scheduling — "a new
application can start to benefit from SNS scheduling quickly, after a
few initial runs".

:class:`OnlineProfileStore` holds the partially explored profiles;
:class:`repro.scheduling.online_sns.OnlineSpreadNShareScheduler` drives
it from inside the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.apps.frameworks import framework_of
from repro.apps.program import ProgramSpec
from repro.errors import ConfigError, ProfileError
from repro.hardware.node_spec import NodeSpec
from repro.profiling.profiler import ProgramProfile, ScaleProfile
from repro.profiling.sampler import sample_llc_curves


@dataclass
class _Exploration:
    profile: ProgramProfile
    complete: bool = False
    pending_scale: Optional[int] = None  # trial currently running


@dataclass
class OnlineProfileStore:
    """Incrementally built profile database.

    Parameters mirror the offline profiler's stopping rules: exploration
    of larger scales stops once a trial ran ``max_degradation`` slower
    than the best time seen, or when per-node core counts drop below
    ``min_cores_per_node``.
    """

    spec: NodeSpec
    max_cluster_nodes: int
    candidate_scales: Tuple[int, ...] = (1, 2, 4, 8)
    min_cores_per_node: int = 2
    max_degradation: float = 0.25
    _state: Dict[Tuple[str, int], _Exploration] = field(default_factory=dict)
    #: Mutation counter: bumped whenever a trial begins, aborts, or is
    #: recorded — i.e. whenever a query above could start answering
    #: differently.  The scheduler's demand cache keys on it to
    #: invalidate state derived from stale profiles.
    version: int = field(default=0)

    # -- exploration ----------------------------------------------------------

    def _entry(self, program: ProgramSpec, procs: int) -> _Exploration:
        key = (program.name, procs)
        if key not in self._state:
            self._state[key] = _Exploration(
                profile=ProgramProfile(name=program.name, ref_procs=procs)
            )
        return self._state[key]

    def _valid_scales(self, program: ProgramSpec, procs: int) -> Sequence[int]:
        framework = framework_of(program.framework)
        base = self.spec.min_nodes_for(procs)
        out = []
        for k in sorted(self.candidate_scales):
            n = k * base
            if n > self.max_cluster_nodes:
                break
            if program.max_nodes is not None and n > program.max_nodes:
                break
            if procs // n < self.min_cores_per_node:
                break
            try:
                framework.validate_footprint(procs, n)
            except ConfigError:
                continue
            out.append(k)
        return out

    def next_trial_scale(self, program: ProgramSpec, procs: int
                         ) -> Optional[int]:
        """The scale the program's next run should trial exclusively, or
        ``None`` when exploration is complete (or a trial is in flight —
        concurrent duplicates would waste exclusive capacity)."""
        entry = self._entry(program, procs)
        if entry.complete:
            return None
        if entry.pending_scale is not None:
            return None
        for k in self._valid_scales(program, procs):
            if k not in entry.profile.scales:
                return k
        entry.complete = True
        return None

    def begin_trial(self, program: ProgramSpec, procs: int, scale: int) -> None:
        entry = self._entry(program, procs)
        if entry.pending_scale is not None:
            raise ProfileError(
                f"{program.name}@{procs}: trial already in flight"
            )
        entry.pending_scale = scale
        self.version += 1

    def abort_trial(self, program: ProgramSpec, procs: int) -> None:
        """Forget an in-flight trial (job failed or was re-planned)."""
        self._entry(program, procs).pending_scale = None
        self.version += 1

    def record_trial(
        self,
        program: ProgramSpec,
        procs: int,
        scale: int,
        observed_time: float,
    ) -> None:
        """Fold a finished exclusive run into the profile.

        The LLC curves come from the monitor's in-run sampling (the same
        observable the offline sampler produces); the time is the actual
        run time, normalized by the caller to the program's unit work.
        """
        if observed_time <= 0:
            raise ProfileError("observed time must be positive")
        entry = self._entry(program, procs)
        if entry.pending_scale != scale:
            raise ProfileError(
                f"{program.name}@{procs}: recording scale {scale} but "
                f"pending is {entry.pending_scale}"
            )
        entry.pending_scale = None
        self.version += 1
        base = self.spec.min_nodes_for(procs)
        n_nodes = scale * base
        curves = sample_llc_curves(program, procs, n_nodes, self.spec)
        entry.profile.add(
            ScaleProfile(
                scale=scale,
                n_nodes=n_nodes,
                procs=procs,
                time_s=observed_time,
                ipc_llc=curves["ipc"],
                bw_llc=curves["bw"],
            )
        )
        # Saturation rule: stop exploring once spreading clearly hurts.
        best = min(p.time_s for p in entry.profile.scales.values())
        if observed_time > best * (1.0 + self.max_degradation):
            entry.complete = True
        elif self.next_trial_scale(program, procs) is None:
            entry.complete = True

    # -- queries ------------------------------------------------------------------

    def exploration_complete(self, program: ProgramSpec, procs: int) -> bool:
        entry = self._entry(program, procs)
        if entry.complete:
            return True
        # Trigger the lazy completeness check without starting trials.
        if entry.pending_scale is None and self.next_trial_scale(
            program, procs
        ) is None:
            return True
        return entry.complete

    def profile(self, program: ProgramSpec, procs: int) -> ProgramProfile:
        """The accumulated (possibly partial) profile."""
        profile = self._entry(program, procs).profile
        if not profile.scales:
            raise ProfileError(
                f"{program.name}@{procs}: no runs recorded yet"
            )
        return profile

    def known_scales(self, program: ProgramSpec, procs: int) -> Sequence[int]:
        return sorted(self._entry(program, procs).profile.scales)
