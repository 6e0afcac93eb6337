"""An independent, unmemoized transcription of the simulator.

The oracle replays a job list under CE, CS or SNS one event at a time
over plain per-node dicts and emits the decisions-level trace records
the fast path's tracer would.  It shares no bookkeeping with
``repro.sim`` or ``repro.scheduling``: only the scalar physics
(``arbitrate_node``, ``node_network_load``, ``job_time``,
``reference_time``), the data types (``Job``, ``Placement``, ``Slice``,
the hardware and fault specs), the profile database and
``estimate_demand``.

Per node it keeps the residents ``{job: procs}`` in insertion order,
whether the node is up, its free-core arrival stamp, and the cross-rack
link share each resident books there.  Per job it keeps one booking
``(program, n_nodes, ways, bw, net)``, the same on every node.  Every
capacity, occupancy metric and arbitration is recomputed from those
dicts each time it is read.

The scheduling point follows Uberun's ``SSScheduler.nextJob``: the
most prior pending job, its candidate scales in the policy's order,
per scale a resource demand and an allocation attempt, else the job is
stuck (aged).  Node search is the two-pass bucket walk of paper §4.4
with its scan cap; buckets list their nodes in arrival order, the order
in which nodes last changed free-core count (each move draws the next
stamp of one clock, in batch order).

One order is taken as input rather than derived: the order in which
each refresh re-times its jobs, which fixes the push order of finish
events that tie in time.  It is read from the fast path's ``full``
trace (the ``speed`` records after each ``batch`` record).  Each such
order must be a permutation of the oracle's own refresh set, and each
recorded speed must be bit-equal to the oracle's; any disagreement is
kept in :attr:`OracleRun.mismatches`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.apps.frameworks import framework_of
from repro.config import RetryPolicy, SchedulerConfig
from repro.errors import ConfigError, ProfileError
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.contention import Slice, arbitrate_node, node_network_load
from repro.perfmodel.execution import NodeConditions, job_time, reference_time
from repro.profiling.database import ProfileDatabase
from repro.scheduling.demand import estimate_demand
from repro.sim.job import Job, JobState, Placement

#: Event kinds, in tie-break order at equal times.
FINISH, NODE_FAIL, NODE_RECOVER, PROFILE_DOWN, PROFILE_UP, SUBMIT = range(6)

#: The fast path's policy class names, as its trace meta record has them.
POLICY_NAMES = {
    "CE": "CompactExclusiveScheduler",
    "CS": "CompactShareScheduler",
    "SNS": "SpreadNShareScheduler",
}


def node_view(spec, residents, booking, partitioned: bool,
              share_residual: bool = True, enforce_bw: bool = False) -> tuple:
    """One node's arbitration from its residents ``[(job, procs)]`` in
    insertion order and the per-job ``booking[job] = (program, n_nodes,
    ways, bw, ...)``: ``(job ids, granted GB/s, network load, effective
    ways)``.  Partitioned, a job's effective ways are its dedicated ways
    plus an equal share of the free ways; unpartitioned, a share of the
    whole LLC proportional to its processes."""
    residents = list(residents)
    if not residents:
        return (), (), 0.0, ()
    used = sum(p for _, p in residents)
    free_ways = spec.llc_ways - sum(booking[j][2] for j, _ in residents)
    slices = []
    for j, p in residents:
        program, n_nodes, ways, bw = booking[j][:4]
        if not partitioned:
            eff = spec.llc_ways * (p / used)
        elif share_residual:
            eff = ways + free_ways / len(residents)
        else:
            eff = float(ways)
        slices.append(Slice(job_id=j, program=program, procs=p,
                            effective_ways=eff, n_nodes=n_nodes,
                            bw_cap=bw if enforce_bw and bw > 0 else None))
    grants = arbitrate_node(spec, slices)
    return (tuple(s.job_id for s in slices),
            tuple(grants[s.job_id] for s in slices),
            node_network_load(spec, slices),
            tuple(s.effective_ways for s in slices))


def bookings_from_meta(meta: dict) -> dict:
    """``node_view`` bookings from a mix table's per-job ``meta``
    entries ``(program, n_nodes, slice count, ways, bw, net)``."""
    return {j: (e[0], e[1], e[3], e[4], e[5]) for j, e in meta.items()}


class Demand(NamedTuple):
    """One candidate scale: ``n`` nodes each searched for ``cores``
    free cores (``None``: fully idle nodes, exclusively), ``ways``
    dedicated ways, ``bw_search`` GB/s and ``net`` link share, ranked
    with ``beta``; the placement then books ``book_ways`` and
    ``book_bw``."""

    scale: int
    n: int
    cores: Optional[int]
    ways: int
    bw_search: float
    beta: float
    book_ways: int
    book_bw: float
    net: float = 0.0


@dataclass
class Mismatch:
    """One refresh where the fast path's recorded order or speeds
    disagree with the oracle's."""

    step: int
    t: float
    job: Optional[int]
    what: str

    def __str__(self) -> str:
        return (f"refresh of step {self.step} (t={self.t!r}, "
                f"job {self.job}): {self.what}")


@dataclass
class OracleRun:
    """What one oracle replay produced."""

    records: List[dict]
    jobs: List[Job]
    makespan: float
    steps: int
    #: The pending jobs when the run stopped with nothing running and no
    #: event left (empty for a run that drained).
    stuck: List[int] = field(default_factory=list)
    mismatches: List[Mismatch] = field(default_factory=list)


def refresh_orders(full_events: Sequence[dict]) -> List[List[tuple]]:
    """Per step of a ``full``-level trace, the ``(job, speed)`` pairs
    of its refresh, in record order."""
    steps: List[List[tuple]] = []
    for e in full_events:
        if e["ev"] == "batch":
            steps.append([])
        elif e["ev"] == "speed":
            steps[-1].append((e["job"], e["speed"]))
    return steps


class Oracle:
    """One replay; construct, then :meth:`run`."""

    def __init__(self, policy: str, cluster: ClusterSpec,
                 jobs: Sequence[Job], config: SchedulerConfig,
                 fault_plan=None, orders: Sequence[Sequence[tuple]] = ()):
        if policy not in POLICY_NAMES:
            raise ValueError(f"the oracle covers CE, CS and SNS, not {policy}")
        self.policy = policy
        self.spec = cluster.node
        self.n = cluster.num_nodes
        self.config = config
        self.partitioned = policy == "SNS"
        self.enforce_bw = config.enforce_bw and self.partitioned
        self.share_residual = config.share_residual
        fabric = cluster.fabric
        self.fabric = fabric if fabric is not None \
            and fabric.active_for(self.n) else None
        self.nodes = [{"residents": {}, "up": True, "stamp": i, "cross": {}}
                      for i in range(self.n)]
        self.clock = self.n
        self.booking: Dict[int, tuple] = {}
        self.jobs: Dict[int, Job] = {}
        self.pending: List[Job] = []
        self.heap: list = []
        self.seq = 0
        self.version: Dict[int, int] = {}
        self.now = 0.0
        self.route: Dict[int, float] = {}
        self.cross_jobs: Dict[int, tuple] = {}
        self.fabric_dirty = False
        self.store_up = True
        self.database = ProfileDatabase()
        self.records: List[dict] = []
        self.orders = list(orders)
        self.mismatches: List[Mismatch] = []
        self.retry = fault_plan.retry if fault_plan is not None \
            else RetryPolicy()
        self.has_faults = bool(fault_plan)
        if fault_plan is not None:
            for fault in fault_plan.node_faults:
                self._push(fault.fail_at, NODE_FAIL, fault.node_id)
                if fault.recover_at is not None:
                    self._push(fault.recover_at, NODE_RECOVER, fault.node_id)
            for outage in fault_plan.profile_outages:
                self._push(outage.start, PROFILE_DOWN, -1)
                self._push(outage.end, PROFILE_UP, -1)
        for j in jobs:
            job = Job(job_id=j.job_id, program=j.program, procs=j.procs,
                      submit_time=j.submit_time, alpha=j.alpha,
                      work_multiplier=j.work_multiplier)
            self.jobs[job.job_id] = job
            self._push(job.submit_time, SUBMIT, job.job_id)
        self.terminal = 0
        self.running = 0

    # -- events ------------------------------------------------------------

    def _push(self, t: float, kind: int, subject: int,
              version: int = 0) -> None:
        heapq.heappush(self.heap, (t, kind, self.seq, subject, version))
        self.seq += 1

    def _push_finish(self, t: float, jid: int) -> None:
        self.version[jid] = self.version.get(jid, 0) + 1
        self._push(t, FINISH, jid, self.version[jid])

    def _live(self, event) -> bool:
        return event[1] != FINISH or self.version.get(event[3]) == event[4]

    def _pop(self):
        while self.heap:
            event = heapq.heappop(self.heap)
            if self._live(event):
                return event
        return None

    def _emit(self, **record) -> None:
        self.records.append(record)

    # -- per-node state, recomputed on every read ---------------------------

    def _free_cores(self, node: dict) -> int:
        return self.spec.cores - sum(node["residents"].values())

    def _free_ways(self, node: dict) -> int:
        if not self.partitioned:
            return self.spec.llc_ways
        return self.spec.llc_ways - sum(self.booking[j][2]
                                        for j in node["residents"])

    def _booked(self, node: dict, index: int) -> float:
        """Booked bandwidth (``index`` 3) or network (4): the residents'
        bookings summed left to right in insertion order."""
        total = 0.0
        for j in node["residents"]:
            total += self.booking[j][index]
        return total

    def _can_host(self, node: dict, cores: int, ways: int, bw: float,
                  net: float) -> bool:
        """Paper §4.4: the node has the cores, the dedicated ways (and a
        free CAT partition) and the bandwidth / network headroom."""
        spec = self.spec
        if cores > self._free_cores(node):
            return False
        if self.partitioned and (
                ways < spec.cache.min_ways
                or len(node["residents"]) >= spec.cache.max_partitions
                or ways > self._free_ways(node)):
            return False
        if bw > 0.0 and bw > (spec.peak_bw - self._booked(node, 3)) + 1e-9:
            return False
        if net > 0.0 and net > (1.0 - self._booked(node, 4)) + 1e-9:
            return False
        return True

    def _cross(self, nid: int) -> float:
        node = self.nodes[nid]
        total = 0.0
        for j in node["residents"]:
            if j in node["cross"]:
                total += node["cross"][j]
        return total

    def _tor_ok(self, nid: int, net: float) -> bool:
        """The rack's uplink has headroom for ``net`` crossing it."""
        size = self.fabric.rack_size
        rack = nid // size
        members = range(rack * size, min(rack * size + size, self.n))
        # Left to right on every Python version (builtin sum() of
        # floats is compensated from 3.12).
        booked = 0.0
        for m in members:
            booked += self._cross(m)
        return booked + net <= len(members) / self.fabric.oversubscription \
            + 1e-9

    def _metric(self, node: dict, beta: float) -> float:
        """The node-selection metric ``Co + Bo + beta * Wo``."""
        spec = self.spec
        co = (spec.cores - self._free_cores(node)) / spec.cores
        bo = min(1.0, self._booked(node, 3) / spec.peak_bw)
        if not self.partitioned:
            return co + bo
        wo = (spec.llc_ways - self._free_ways(node)) / spec.llc_ways
        return co + bo + beta * wo

    def _bucket(self, free: int) -> List[int]:
        """Up nodes with ``free`` free cores, in arrival order."""
        members = [i for i, node in enumerate(self.nodes)
                   if node["up"] and self._free_cores(node) == free]
        return sorted(members, key=lambda i: self.nodes[i]["stamp"])

    def _stamp(self, nid: int) -> None:
        self.nodes[nid]["stamp"] = self.clock
        self.clock += 1

    # -- node selection (paper §4.4) -----------------------------------------

    def _pick(self, ids: List[int], n: int, beta: float,
              locality: bool) -> List[int]:
        """The ``n`` idlest of ``ids``, lowest metric first, ties by node
        id; under locality on an active fabric, within the rack of the
        idlest candidate whose rack holds ``n`` candidates, else ties go
        first to racks holding more candidates.  ``n`` or fewer
        candidates are taken as they come."""
        if len(ids) <= n:
            return ids
        metric = {i: self._metric(self.nodes[i], beta) for i in ids}
        if not (locality and self.fabric is not None):
            return sorted(ids, key=lambda i: (metric[i], i))[:n]
        size = self.fabric.rack_size
        pop: Dict[int, int] = {}
        for i in ids:
            pop[i // size] = pop.get(i // size, 0) + 1
        full = [i for i in ids if pop[i // size] >= n]
        if full:
            best = min(full, key=lambda i: (metric[i], i))
            ids = [i for i in ids if i // size == best // size]
            return sorted(ids, key=lambda i: (metric[i], i))[:n]
        return sorted(ids, key=lambda i: (metric[i], -pop[i // size],
                                          i))[:n]

    def _find_nodes(self, n: int, cores: int, ways: int, bw: float,
                    beta: float, net: float = 0.0,
                    locality: bool = False) -> Optional[List[int]]:
        """Groups by free-core count, emptiest first: the first group
        with ``n`` qualifying nodes supplies the pick; otherwise the
        groups' qualifiers pooled in walk order, up to the group that
        reaches the scan cap.  Part-used nodes are scanned up to the
        cap each and must pass the ToR headroom test under an active
        fabric; idle nodes qualify all together or not at all, with no
        ToR test (DESIGN.md §11)."""
        scan_cap = max(256, 4 * n)
        total = self.spec.cores
        tor = net > 0.0 and self.fabric is not None
        groups = []
        for free in range(total, cores - 1, -1):
            members = self._bucket(free)
            if not members:
                continue
            if free == total:
                pristine = {"residents": {}, "up": True, "cross": {}}
                if not self._can_host(pristine, cores, ways, bw, net):
                    continue
                if len(members) >= n:
                    # All idle: metric 0, so first in arrival order,
                    # but locality always ranks (by rack, then id).
                    return self._pick(members, n, beta, True) \
                        if locality else members[:n]
                hosts = members
            else:
                hosts = [i for i in members
                         if self._can_host(self.nodes[i], cores, ways, bw,
                                           net)
                         and (not tor or self._tor_ok(i, net))][:scan_cap]
                if len(hosts) >= n:
                    return self._pick(hosts, n, beta, locality)
            groups.append(hosts)
        pooled: List[int] = []
        for hosts in groups:
            pooled.extend(hosts)
            if len(pooled) >= scan_cap:
                break
        if len(pooled) >= n:
            return self._pick(pooled, n, beta, locality)
        return None

    def _first_idle(self, n: int) -> Optional[List[int]]:
        idle = self._bucket(self.spec.cores)
        return idle[:n] if len(idle) >= n else None

    # -- placement bookkeeping -----------------------------------------------

    def _place(self, jid: int, nodes: List[int], procs: List[int],
               program, ways: int, bw: float, net: float,
               corunners: set) -> None:
        self.booking[jid] = (program, len(nodes), ways, bw, net)
        for nid, p in zip(nodes, procs):
            residents = self.nodes[nid]["residents"]
            corunners.update(residents)
            residents[jid] = p
            self._stamp(nid)
        count = len(nodes)
        if net != 0.0 and self.fabric is not None and count > 1:
            size = self.fabric.rack_size
            racks = [nid // size for nid in nodes]
            if len(set(racks)) > 1:
                for nid, rack in zip(nodes, racks):
                    same = racks.count(rack)
                    self.nodes[nid]["cross"][jid] = \
                        net * (count - same) / (count - 1)

    def _remove(self, job: Job, affected: set) -> None:
        jid = job.job_id
        for nid in job.placement.nodes.tolist():
            node = self.nodes[nid]
            del node["residents"][jid]
            node["cross"].pop(jid, None)
            affected.update(node["residents"])
            self._stamp(nid)
        del self.booking[jid]
        affected.discard(jid)

    # -- policies: Uberun's nextJob, one pending job at a time ----------------

    def _valid_footprint(self, job: Job, n: int) -> bool:
        if n > self.n or n > job.procs:
            return False
        if job.program.max_nodes is not None and n > job.program.max_nodes:
            return False
        try:
            framework_of(job.program.framework).validate_footprint(
                job.procs, n)
        except ConfigError:
            return False
        return True

    def _candidates(self, job: Job) -> Optional[List["Demand"]]:
        """The job's demand per candidate scale, in the policy's order:
        CE tries its minimum footprint exclusively, CS the ascending
        scales on any nodes with enough free cores, SNS its profile's
        preferred scales with estimated ways and bandwidth.  ``None``
        when SNS has no profile to estimate from (store down, profiling
        failed): it degrades to an exclusive placement."""
        spec, config = self.spec, self.config
        base = spec.min_nodes_for(job.procs)
        if self.policy == "CE":
            return [Demand(1, base, None, 0, 0.0, 0.0, spec.llc_ways, 0.0)]
        if self.policy == "CS":
            return [Demand(k, k * base, -(-job.procs // (k * base)), 0, 0.0,
                           0.0, spec.llc_ways, 0.0)
                    for k in config.candidate_scales]
        if not self.store_up:
            return None
        alpha = job.alpha if job.alpha is not None else config.default_alpha
        try:
            profile = self.database.get_or_profile(
                job.program, job.procs, spec, self.n,
                candidate_scales=config.candidate_scales)
        except ProfileError:
            return None
        slack = (1.0 - config.bw_headroom) * spec.peak_bw
        out = []
        for k in profile.preferred_scale_order(config.scale_tolerance):
            scale_profile = profile.get(k)
            nf = job.program.comm.network_fraction(scale_profile.n_nodes) \
                if config.manage_network else 0.0
            d = estimate_demand(scale_profile, job.procs, alpha, spec,
                                network_fraction=nf)
            if self._valid_footprint(job, d.n_nodes):
                out.append(Demand(k, d.n_nodes, d.cores_per_node, d.ways,
                                  d.bw_per_node + slack, config.beta,
                                  d.ways, d.bw_per_node, d.net_per_node))
        return out

    def _allocate(self, job: Job, corunners: set):
        """The first candidate scale that finds nodes, installed:
        ``(job, placement, scale, meta)``, or ``None`` (stuck)."""
        spec = self.spec
        candidates = self._candidates(job)
        if candidates is None:
            candidates = [Demand(1, spec.min_nodes_for(job.procs), None, 0,
                                 0.0, 0.0, spec.llc_ways, spec.peak_bw)]
            meta = {"degraded": True}
        else:
            meta = {"candidates": len(candidates)} \
                if self.policy == "SNS" else {}
        for d in candidates:
            if not self._valid_footprint(job, d.n):
                continue
            if d.cores is None:  # exclusive: the first idle nodes
                nodes = self._first_idle(d.n)
            else:
                nodes = self._find_nodes(d.n, d.cores, d.ways, d.bw_search,
                                         d.beta, d.net,
                                         self.config.locality_aware)
            if nodes is None:
                continue
            base, extra = divmod(job.procs, d.n)
            procs = [base + 1] * extra + [base] * (d.n - extra)
            self._place(job.job_id, nodes, procs, job.program, d.book_ways,
                        d.book_bw, d.net, corunners)
            return (job, Placement(nodes, procs, d.book_ways, d.book_bw,
                                   d.net), d.scale, meta)
        return None

    def _schedule_point(self, affected: set) -> None:
        if not self.pending:
            return
        config = self.config
        queue = sorted(self.pending, key=lambda j: (-j.times_passed_over,
                                                    j.submit_time, j.job_id))
        decisions, stuck, corunners = [], [], set()
        for job in queue[:config.max_queue_scan]:
            decision = self._allocate(job, corunners)
            if decision is not None:
                decisions.append(decision)
                continue
            stuck.append(job)
            if job.times_passed_over >= config.age_limit:
                break
        for job in stuck:
            job.times_passed_over += 1
        affected.update(corunners)
        unstarted = {d[0].job_id for d in decisions}
        for job, placement, scale, meta in decisions:
            self.pending.remove(job)
            t_ref = reference_time(job.program, job.procs, self.spec)
            job.begin(self.now, t_ref * job.work_multiplier, placement,
                      scale)
            self.running += 1
            affected.add(job.job_id)
            unstarted.discard(job.job_id)
            xfrac = self._fabric_start(job) if self.fabric else None
            partners = set()
            for nid in placement.nodes.tolist():
                partners.update(self.nodes[nid]["residents"])
            partners -= unstarted | {job.job_id}
            record = dict(
                ev="start", t=self.now, job=job.job_id, scale=scale,
                procs=job.procs, n_nodes=placement.n_nodes,
                ways=placement.dedicated_ways, bw=placement.booked_bw,
                net=placement.booked_net, wait=self.now - job.submit_time,
                candidates=meta.get("candidates"),
                degraded=bool(meta.get("degraded", False)), trial=False,
                nodes=placement.nodes.tolist(), partners=sorted(partners))
            if xfrac is not None:
                record["xfrac"] = xfrac
            self.records.append(record)

    # -- the physical fabric --------------------------------------------------

    def _fabric_start(self, job: Job) -> Optional[float]:
        nodes = job.placement.nodes.tolist()
        count = len(nodes)
        racks = [nid // self.fabric.rack_size for nid in nodes]
        uniq = sorted(set(racks))
        if count <= 1 or len(uniq) == 1:
            return None
        frac = job.program.comm.network_fraction(count)
        if frac == 0.0:
            return None
        counts = np.array([racks.count(r) for r in uniq], dtype=np.int64)
        self.cross_jobs[job.job_id] = (
            np.array(uniq, dtype=np.int64),
            self.fabric.uplink_loads(frac, count, counts))
        self.fabric_dirty = True
        return frac

    def _fabric_end(self, jid: int) -> None:
        if self.cross_jobs.pop(jid, None) is not None:
            self.fabric_dirty = True
        self.route.pop(jid, None)

    # -- lifecycle --------------------------------------------------------------

    def _finish(self, job: Job, affected: set) -> None:
        job.settle_progress(self.now)
        assert job.remaining_work <= 1e-6 * max(1.0, job.total_work), \
            f"job {job.job_id} finished with work left"
        n_nodes = job.placement.n_nodes
        self._remove(job, affected)
        job.complete(self.now)
        self.version.pop(job.job_id, None)
        run = job.run_time
        self._emit(ev="finish", t=self.now, job=job.job_id, run=run,
                   node_s=run * n_nodes)
        if self.fabric:
            self._fabric_end(job.job_id)
        self.running -= 1
        self.terminal += 1

    def _node_fail(self, nid: int, affected: set) -> None:
        residents = list(self.nodes[nid]["residents"])
        self._emit(ev="node_fail", t=self.now, node=nid,
                   evicted=len(residents))
        for jid in residents:
            job = self.jobs[jid]
            self._remove(job, affected)
            self.version[jid] = self.version.get(jid, 0) + 1
            lost_before = job.lost_node_seconds
            job.settle_progress(self.now)
            job.evict(self.now)
            if self.fabric:
                self._fabric_end(jid)
            self.running -= 1
            requeue_at = None
            if job.retries <= self.retry.max_retries:
                requeue_at = self.now + self.retry.backoff_s
                self._push(requeue_at, SUBMIT, jid)
            else:
                job.mark_failed(self.now)
                self.version.pop(jid, None)
                self.terminal += 1
            self._emit(ev="evict", t=self.now, job=jid, node=nid,
                       attempt=job.retries,
                       lost_node_s=job.lost_node_seconds - lost_before,
                       requeue_at=requeue_at)
            if requeue_at is None:
                self._emit(ev="job_failed", t=self.now, job=jid)
        self.nodes[nid]["up"] = False

    # -- the refresh --------------------------------------------------------------

    def _speed(self, job: Job, views: dict) -> float:
        spec = self.spec
        conditions = []
        for nid, p in zip(job.placement.nodes.tolist(),
                          job.placement.procs.tolist()):
            if nid not in views:
                residents = self.nodes[nid]["residents"].items()
                views[nid] = node_view(spec, residents, self.booking,
                                       self.partitioned, self.share_residual,
                                       self.enforce_bw)
            view = views[nid]
            i = view[0].index(job.job_id)
            conditions.append(NodeConditions(
                p, spec.cache.ways_to_mb(view[3][i]) / p, view[1][i],
                net_load=view[2]))
        t_now = job_time(job.program, job.procs, conditions, spec,
                         route_load=self.route.get(job.job_id, 0.0))
        return reference_time(job.program, job.procs, spec) / t_now

    def _refresh(self, affected: set, step: int) -> None:
        if self.fabric is not None and self.fabric_dirty:
            self.fabric_dirty = False
            jids = sorted(self.cross_jobs)
            _, _, route = self.fabric.link_utilization(
                self.n, [self.cross_jobs[j][0] for j in jids],
                [self.cross_jobs[j][1] for j in jids])
            self.route.update(zip(jids, route.tolist()))
            affected = affected | self.cross_jobs.keys()
        own = {j for j in affected
               if self.jobs[j].state is JobState.RUNNING}
        given = self.orders[step] if step < len(self.orders) else []
        order = [j for j, _ in given]
        if sorted(order) != sorted(own):
            self.mismatches.append(Mismatch(
                step, self.now, None,
                f"fast path re-timed {order}, oracle's refresh set is "
                f"{sorted(own)}"))
            order = [j for j in dict.fromkeys(order) if j in own] \
                + sorted(own - set(order))
        recorded = dict(given)
        views: dict = {}
        for jid in order:
            job = self.jobs[jid]
            job.settle_progress(self.now)
            speed = self._speed(job, views)
            job.set_speed(speed)
            fast = recorded.get(jid)
            if fast is not None and fast.hex() != speed.hex():
                self.mismatches.append(Mismatch(
                    step, self.now, jid,
                    f"fast path speed {fast!r}, oracle {speed!r}"))
            self._push_finish(job.projected_finish(), jid)

    # -- the loop -------------------------------------------------------------

    def run(self) -> OracleRun:
        spec = self.spec
        meta = dict(ev="meta", t=0.0, policy=POLICY_NAMES[self.policy],
                    partitioned=self.partitioned, nodes=self.n,
                    cores=spec.cores, llc_ways=spec.llc_ways,
                    peak_bw=spec.peak_bw, jobs=len(self.jobs))
        if self.fabric is not None:
            meta["fabric"] = {"rack_size": self.fabric.rack_size,
                              "oversub": self.fabric.oversubscription}
        self.records.append(meta)
        step = 0
        stuck: List[int] = []
        while True:
            if self.has_faults and step and self.terminal == len(self.jobs):
                break
            event = self._pop()
            if event is None:
                break
            t, kind, _, subject, _ = event
            self.now = max(self.now, t)
            affected: set = set()
            if kind == SUBMIT:
                job = self.jobs[subject]
                self._emit(ev="submit", t=self.now, job=subject,
                           program=job.program.name, procs=job.procs,
                           attempt=job.retries)
                self.pending.append(job)
            elif kind == FINISH:
                self._finish(self.jobs[subject], affected)
            elif kind == NODE_FAIL:
                self._node_fail(subject, affected)
            elif kind == NODE_RECOVER:
                self.nodes[subject]["up"] = True
                self._stamp(subject)
                self._emit(ev="node_recover", t=self.now, node=subject)
            else:
                self.store_up = kind == PROFILE_UP
                self._emit(ev="profile_up" if self.store_up
                           else "profile_down", t=self.now)
            self._schedule_point(affected)
            self._refresh(affected, step)
            step += 1
            if self.pending and not self.running and not any(
                    self._live(e) for e in self.heap):
                stuck = sorted(j.job_id for j in self.pending)
                break
        return OracleRun(self.records, list(self.jobs.values()), self.now,
                         step, stuck, self.mismatches)


def run_oracle(policy: str, cluster: ClusterSpec, jobs: Sequence[Job],
               config: SchedulerConfig = SchedulerConfig(), fault_plan=None,
               full_events: Sequence[dict] = ()) -> OracleRun:
    """Replay ``jobs`` (their inputs only: id, program, procs, submit
    time, alpha, work multiplier) under ``policy``; ``full_events`` is
    the fast path's ``full``-level trace of the same scenario, which
    supplies the refresh orders and the speeds to check."""
    return Oracle(policy, cluster, jobs, config, fault_plan,
                  refresh_orders(full_events)).run()

