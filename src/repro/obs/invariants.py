"""Trace replay + conservation-law checking (DESIGN.md §10).

:func:`check_trace` replays the decisions-level record stream of any
trace through a small cluster state machine and returns every violated
law as a message (empty list = clean); :func:`verify_trace` raises
:class:`~repro.errors.SimulationError` instead.  The laws are the
observable contracts of the runtime:

- timestamps are monotone non-decreasing;
- every ``start`` consumes exactly one outstanding ``submit`` of the
  same job (and its ``wait`` equals the gap);
- jobs never start on a down node, never twice, and their recomputed
  per-node core footprint (the paper's even split) fits every node;
- allocated dedicated LLC ways never exceed the node's way count
  (partitioned policies only — CE/CS book the nominal full cache);
- booked bandwidth never exceeds the node peak;
- every ``evict`` coincides with a ``node_fail`` on a node the job
  occupied, and each fault evicts exactly its resident set
  (evictions <= faults x residents);
- an evict's ``requeue_at`` is honored by a later ``submit`` at that
  exact time (or a ``job_failed`` record when the budget is spent);
- goodput + badput == total charged node-seconds: every run interval
  is attributed, ``finish.node_s`` / ``evict.lost_node_s`` equal the
  interval's span times its width;
- at end of trace nothing is pending, running, or awaiting resubmit;
- every ``links`` record (events level, fabric runs only) equals a
  from-scratch recomputation of the ToR/spine utilizations from the
  cross-rack jobs running at that instant — *exact* float equality,
  because the runtime derives them with the same deterministic
  arithmetic the replay uses (link conservation, DESIGN.md §13).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import SimulationError
from repro.hardware.fabric import FabricSpec

from repro.obs.trace import _split_procs, decision_stream

_REL_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


class _NodeLedger:
    """Per-node resource mirror rebuilt from the trace."""

    __slots__ = ("ways", "bw", "cores", "residents")

    def __init__(self) -> None:
        self.ways = 0
        self.bw = 0.0
        self.cores = 0
        self.residents: Set[int] = set()


def check_trace(events: List[dict]) -> List[str]:
    """Replay a trace and return every violated conservation law."""
    stream = decision_stream(events)
    errors: List[str] = []
    if not stream or stream[0]["ev"] != "meta":
        return ["trace must begin with a meta record"]
    meta = stream[0]
    num_nodes = meta["nodes"]
    partitioned = meta["partitioned"]

    ledgers = [_NodeLedger() for _ in range(num_nodes)]
    pending: Dict[int, dict] = {}       # job -> outstanding submit
    running: Dict[int, dict] = {}       # job -> its start record
    down: Set[int] = set()
    # job -> promised resubmission time from its last evict
    resubmit: Dict[int, float] = {}
    # node_fail bookkeeping for "each fault evicts its resident set"
    fail_quota: Dict[int, int] = {}     # node -> evicted yet to be seen
    prev_t = 0.0
    charged = 0.0                       # total run-interval node-seconds
    attributed = 0.0                    # goodput + badput from records

    def err(event: dict, message: str) -> None:
        errors.append(f"t={event['t']:.6g} {event['ev']}: {message}")

    for event in stream[1:]:
        t = event["t"]
        kind = event["ev"]
        if t < prev_t - 1e-9:
            err(event, f"timestamp went backwards ({t} < {prev_t})")
        if t > prev_t:
            # Fault instants are over: any unevicted quota is a lost law.
            for nid, quota in fail_quota.items():
                if quota:
                    errors.append(
                        f"node_fail on node {nid} claimed {quota} more "
                        f"evictions than the trace shows"
                    )
            fail_quota.clear()
        prev_t = max(prev_t, t)

        if kind == "submit":
            jid = event["job"]
            if jid in pending:
                err(event, f"job {jid} submitted while already pending")
            if jid in running:
                err(event, f"job {jid} submitted while running")
            promised = resubmit.pop(jid, None)
            if event["attempt"] > 0 and promised is None:
                err(event, f"resubmit of job {jid} without a prior evict")
            if promised is not None and not _close(promised, t):
                err(event, f"job {jid} promised requeue at {promised}, "
                           f"resubmitted at {t}")
            pending[jid] = event

        elif kind == "start":
            jid = event["job"]
            submit = pending.pop(jid, None)
            if submit is None:
                err(event, f"job {jid} started without outstanding submit")
            else:
                # ``wait`` is measured from the job's *original*
                # submission (Job.submit_time survives requeues), so it
                # only equals the gap for first attempts.
                if submit["attempt"] == 0 \
                        and not _close(event["wait"], t - submit["t"]):
                    err(event, f"wait {event['wait']} != start - submit "
                               f"({t - submit['t']})")
                if event["procs"] != submit["procs"]:
                    err(event, "procs changed between submit and start")
            if jid in running:
                err(event, f"job {jid} started twice")
            nodes = event["nodes"]
            if event["n_nodes"] != len(nodes):
                err(event, "n_nodes disagrees with the node list")
            if len(set(nodes)) != len(nodes):
                err(event, "duplicate nodes in placement")
            splits = _split_procs(event["procs"], len(nodes))
            observed_partners: Set[int] = set()
            for nid, procs in zip(nodes, splits):
                if not 0 <= nid < num_nodes:
                    err(event, f"node {nid} out of range")
                    continue
                if nid in down:
                    err(event, f"job {jid} started on down node {nid}")
                ledger = ledgers[nid]
                observed_partners.update(ledger.residents)
                ledger.residents.add(jid)
                ledger.cores += procs
                ledger.bw += event["bw"]
                if ledger.cores > meta["cores"]:
                    err(event, f"node {nid} over core capacity "
                               f"({ledger.cores} > {meta['cores']})")
                if ledger.bw > meta["peak_bw"] * (1 + _REL_TOL):
                    err(event, f"node {nid} over peak bandwidth "
                               f"({ledger.bw:.6g} > {meta['peak_bw']})")
                if partitioned:
                    ledger.ways += event["ways"]
                    if ledger.ways > meta["llc_ways"]:
                        err(event, f"node {nid} over way capacity "
                                   f"({ledger.ways} > {meta['llc_ways']})")
            if sorted(observed_partners) != event["partners"]:
                err(event, f"partners {event['partners']} != residents "
                           f"{sorted(observed_partners)}")
            running[jid] = event

        elif kind in ("finish", "evict"):
            jid = event["job"]
            start = running.pop(jid, None)
            if start is None:
                err(event, f"job {jid} {kind} while not running")
                continue
            n_nodes = start["n_nodes"]
            splits = _split_procs(start["procs"], n_nodes)
            for nid, procs in zip(start["nodes"], splits):
                if not 0 <= nid < num_nodes:
                    continue
                ledger = ledgers[nid]
                if jid not in ledger.residents:
                    err(event, f"job {jid} not resident on node {nid}")
                    continue
                ledger.residents.discard(jid)
                ledger.cores -= procs
                ledger.bw -= start["bw"]
                if partitioned:
                    ledger.ways -= start["ways"]
            span = (t - start["t"]) * n_nodes
            charged += span
            if kind == "finish":
                attributed += event["node_s"]
                if not _close(event["node_s"], span):
                    err(event, f"node_s {event['node_s']:.6g} != charged "
                               f"interval {span:.6g}")
            else:
                attributed += event["lost_node_s"]
                if not _close(event["lost_node_s"], span):
                    err(event, f"lost_node_s {event['lost_node_s']:.6g} "
                               f"!= charged interval {span:.6g}")
                node = event["node"]
                if fail_quota.get(node, 0) <= 0:
                    err(event, f"evict without concurrent node_fail on "
                               f"node {node}")
                else:
                    fail_quota[node] -= 1
                if not (0 <= node < num_nodes) \
                        or node not in set(start["nodes"]):
                    err(event, f"job {jid} evicted for node {node} it "
                               f"did not occupy")
                requeue = event["requeue_at"]
                if requeue is not None:
                    if requeue < t - 1e-9:
                        err(event, "requeue_at lies in the past")
                    resubmit[jid] = requeue

        elif kind == "job_failed":
            jid = event["job"]
            if jid in running or jid in pending:
                err(event, f"job {jid} failed while still live")
            if jid in resubmit:
                err(event, f"job {jid} failed but promised a resubmit")

        elif kind == "node_fail":
            nid = event["node"]
            if nid in down:
                err(event, f"node {nid} failed while already down")
            else:
                down.add(nid)
            residents = ledgers[nid].residents if 0 <= nid < num_nodes \
                else set()
            if event["evicted"] != len(residents):
                err(event, f"claims {event['evicted']} evictions but node "
                           f"hosts {len(residents)} jobs")
            fail_quota[nid] = fail_quota.get(nid, 0) + event["evicted"]

        elif kind == "node_recover":
            nid = event["node"]
            if nid not in down:
                err(event, f"node {nid} recovered while up")
            down.discard(nid)

        # profile_down / profile_up carry no replayable state

    for nid, quota in fail_quota.items():
        if quota:
            errors.append(
                f"node_fail on node {nid} claimed {quota} more evictions "
                f"than the trace shows"
            )
    if running:
        errors.append(f"jobs still running at end of trace: "
                      f"{sorted(running)}")
    if pending:
        errors.append(f"jobs still pending at end of trace: "
                      f"{sorted(pending)}")
    if resubmit:
        errors.append(f"promised resubmits never happened: "
                      f"{sorted(resubmit)}")
    for nid, ledger in enumerate(ledgers):
        if ledger.residents or ledger.cores or ledger.ways \
                or abs(ledger.bw) > _REL_TOL:
            errors.append(f"node {nid} not empty at end of trace")
    if not _close(charged, attributed):
        errors.append(
            f"goodput+badput {attributed:.6g} != charged node-seconds "
            f"{charged:.6g}"
        )
    errors.extend(_check_fabric(events))
    return errors


def _check_fabric(events: List[dict]) -> List[str]:
    """Link conservation (DESIGN.md §13): replay the cross-rack running
    set from the decision records and demand that every ``links`` record
    matches a from-scratch recomputation of the ToR uplink and spine
    utilizations — exactly, not approximately: the cluster accumulates
    loads in sorted-job-id order with a fixed operation sequence
    (:meth:`repro.sim.cluster.ClusterState.link_loads`) precisely so
    this replay reproduces every float bit-for-bit (JSON round-trips of
    float64 are exact)."""
    meta = None
    for event in events:
        if event["ev"] == "meta":
            meta = event
            break
    if meta is None or "fabric" not in meta:
        if any(e["ev"] == "links" for e in events):
            return ["links records present in a trace whose meta "
                    "declares no fabric"]
        return []
    fabric = FabricSpec(
        rack_size=meta["fabric"]["rack_size"],
        oversubscription=meta["fabric"]["oversub"],
    )
    num_nodes = meta["nodes"]
    num_racks = fabric.num_racks(num_nodes)
    pop = [int(p) for p in fabric.rack_population(num_nodes)]
    errors: List[str] = []
    # job -> (xfrac, n_nodes, [(rack, nodes-in-rack), ...]) for running
    # cross-rack jobs, mirroring ClusterState.cross_jobs.
    cross: Dict[int, tuple] = {}
    for event in events:
        kind = event["ev"]
        if kind == "start":
            xfrac = event.get("xfrac")
            if xfrac is None:
                continue
            nodes = event["nodes"]
            counts: Dict[int, int] = {}
            for nid in nodes:
                r = fabric.rack_of(nid)
                counts[r] = counts.get(r, 0) + 1
            cross[event["job"]] = (xfrac, len(nodes),
                                   sorted(counts.items()))
        elif kind in ("finish", "evict"):
            cross.pop(event["job"], None)
        elif kind == "links":
            tor = [0.0] * num_racks
            for jid in sorted(cross):
                frac, n, rack_counts = cross[jid]
                for r, s in rack_counts:
                    tor[r] += frac * ((n - s) / (n - 1)) * s
            spine = 0.0
            for load in tor:
                spine += load
            tor_util = [
                fabric.tor_utilization(tor[r], pop[r])
                for r in range(num_racks)
            ]
            spine_util = fabric.spine_utilization(spine, num_nodes)
            if list(event["tor"]) != tor_util:
                errors.append(
                    f"t={event['t']:.6g} links: recorded ToR "
                    f"utilizations diverge from the replay"
                )
            if event["spine"] != spine_util:
                errors.append(
                    f"t={event['t']:.6g} links: recorded spine "
                    f"utilization {event['spine']!r} != replayed "
                    f"{spine_util!r}"
                )
    return errors


def verify_trace(events: List[dict],
                 label: Optional[str] = None) -> None:
    """Raise :class:`SimulationError` listing every violated law."""
    errors = check_trace(events)
    if errors:
        prefix = f"{label}: " if label else ""
        detail = "\n  ".join(errors[:20])
        more = f"\n  ... and {len(errors) - 20} more" \
            if len(errors) > 20 else ""
        raise SimulationError(
            f"{prefix}trace violates {len(errors)} invariant(s):\n"
            f"  {detail}{more}"
        )
