"""Runtime cluster state: the node pool with free-core indexing.

The SNS placement algorithm first clusters nodes into groups by idle-core
count and tries to place a job within a single group (Section 4.4); CE
takes the first fully idle nodes.  Both read one free-core index of
per-count arrival arrays keyed by node stamps (DESIGN.md §7), so moving
a wide placement between groups, or taking its first N idle nodes, is
array work rather than per-node Python even on the 32K-node clusters of
Fig 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import AllocationError, SimulationError
from repro.hardware.topology import ClusterSpec
from repro.perfmodel import batch
from repro.perfmodel.contention import left_sum
from repro.sim.node import _SHORT, MixTable, distinct, recount

#: Safety valve of the caches that key on signatures (the cluster's
#: view cache, the SNS demand cache): one that somehow exceeds this
#: many entries is cleared wholesale.  Distinct signatures are bounded
#: in practice, so this should never trigger outside adversarial
#: workloads.
MAX_ENTRIES = 1 << 20

#: One node's arbitration, stored positionally so every node of a mix
#: shares one tuple: (resident job ids in insertion order, granted GB/s
#: per job, network load, effective LLC ways per job).  Slices per node
#: are few, so consumers look up one job via ``view[0].index(job_id)``.
ArbitrationView = Tuple[
    Tuple[int, ...], Tuple[float, ...], float, Tuple[float, ...]
]

#: Batches up to this many nodes take the free-core index's scalar paths.
_NARROW = 8


def _id_array(node_ids: Iterable[int]) -> np.ndarray:
    """Node ids as an int64 array (arrays pass through uncopied)."""
    if isinstance(node_ids, np.ndarray):
        return node_ids
    count = len(node_ids) if hasattr(node_ids, "__len__") else -1
    return np.fromiter(node_ids, dtype=np.int64, count=count)


@dataclass
class ClusterState:
    """All nodes of the simulated cluster plus a free-core index."""

    spec: ClusterSpec
    partitioned: bool = True
    enforce_bw: bool = False
    share_residual: bool = True
    # Job-id-independent signature -> arbitration result, shared across
    # mixes: successive jobs of one shape resolve their mixes without a
    # kernel solve.  Values store grants/ways positionally plus the
    # program refs for stale-id defence.
    _view_cache: Dict[tuple, tuple] = field(init=False)
    #: Monotone counter bumped on every slice removal.  Placements only
    #: consume capacity, so between two removals a node search that
    #: failed cannot succeed — the find_nodes negative cache keys off
    #: this epoch (DESIGN.md §7).  Node *recovery* also bumps it: a
    #: rejoining node adds capacity exactly like a release.
    release_epoch: int = field(default=0, init=False)
    #: Down-node mask (insertion-ordered for deterministic iteration).
    #: Down nodes have no live free-core index entry, so every
    #: placement path (bucket scans, idle queries) skips them natively.
    _down: Dict[int, None] = field(init=False)
    #: Arbitration/scan instrumentation, surfaced on SimulationResult;
    #: ``batch_*`` count the arbitration kernel's calls and slices (its
    #: tables are ``arb_nodes_solved``).
    counters: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        # A node's state is its interned resident mix (DESIGN.md §7): the
        # residents, the per-job bookings, the per-mix capacity arrays,
        # arbitration views and batch transitions live here, and a node
        # is its slot of ``mixes.mix``.
        n = self.spec.num_nodes
        self.mixes = MixTable(n, self.spec.node, self.partitioned)
        # Free-core index (DESIGN.md §7).  Bucket ``f`` is the up nodes
        # with ``free_cores == f`` ordered by arrival stamp.  ``_stamp``
        # holds each node's stamp (-1 while down); every bucket move
        # draws a fresh one from ``_clock``.  Per bucket, ``_bids`` /
        # ``_bst`` are append-only (node, stamp) arrival arrays live over
        # ``[_head[f], _tail[f])``: an entry is live iff its stamp is its
        # node's current stamp, so a move appends and never deletes.
        # ``_count[f]`` is the bucket's live size.
        cores = self.spec.node.cores
        self._stamp = np.arange(n, dtype=np.int64)
        self._clock = n
        self._count = [0] * cores + [n]
        self._head = [0] * (cores + 1)
        self._tail = list(self._count)
        self._bids = [np.empty(0, dtype=np.int64)] * (cores + 1)
        self._bst = list(self._bids)
        self._bids[cores] = np.arange(n, dtype=np.int64)
        self._bst[cores] = self._stamp.copy()
        self._view_cache = {}
        self._down = {}
        #: Cross-rack link share per node of each job booking one
        #: (``job -> {node: share}``; active fabric, multi-rack
        #: placements with ``net != 0`` only).  Shares depend on the
        #: rack, not the mix, so they are per-node state.
        self._cross: Dict[int, Dict[int, float]] = {}
        #: Booked cross-rack link fraction per node: the part of its
        #: booked network share that leaves the rack through the ToR
        #: uplink, the left-to-right sum of its residents' ``_cross``
        #: shares.  The per-rack ToR and spine aggregates derive from it.
        self.booked_cross = np.zeros(n, dtype=np.float64)
        #: Per-node scratch for the duplicate-node check of wide
        #: placements; its contents mean nothing between calls.
        self._scratch = np.zeros(n, dtype=np.int64)
        self.counters = {
            "mix_transitions": 0,
            "view_cache_hits": 0,
            "arb_nodes_solved": 0,
            "nodes_scanned": 0,
            "find_fail_hits": 0,
            "batch_calls": 0,
            "batch_slices": 0,
            # Physical link-load recomputations and per-job route-load
            # evaluations (DESIGN.md §13; zero unless the fabric is
            # active).
            "fabric_link_refreshes": 0,
            "fabric_route_evals": 0,
        }
        # Negative placement-search cache: demand tuples find_nodes
        # failed for at the given release epoch (see find_nodes —
        # placements only consume, so a failure holds until a removal).
        self.find_fail: Tuple[int, set] = (-1, set())
        #: Physical link loads (DESIGN.md §13): running job -> (rack ids,
        #: per-rack uplink loads, network fraction), in placement order,
        #: for every placement that spans racks with a nonzero network
        #: fraction, whatever it booked.  ``_links_dirty`` is set when
        #: the set changes, until :meth:`link_loads` re-derives them.
        self.cross_jobs: Dict[int, tuple] = {}
        self._links_dirty = False
        # Leaf-spine fabric (DESIGN.md §13).  ``fabric`` is non-None
        # only when the spec attaches a FabricSpec that can ever bind on
        # this cluster (oversubscribed AND multi-rack) — every fabric
        # code path below gates on it, which is what keeps flat fabrics
        # bit-identical to no fabric at all.
        fabric = self.spec.fabric
        if fabric is not None and fabric.active_for(n):
            self.fabric = fabric
            self._rack_of = fabric.rack_map(n)
            self._num_racks = fabric.num_racks(n)
            self._rack_pop = fabric.rack_population(n)
            # Derived link aggregates over booked_cross: canonical
            # left-to-right sums in node-id order (rack order for the
            # spine), recomputed by _refresh_links after every cross
            # mutation — never maintained incrementally, because the
            # incremental add order (placement order) is not the
            # canonical node-id order the exact-float contract re-sums
            # in.
            self.booked_tor = np.zeros(self._num_racks, dtype=np.float64)
            self.booked_spine = 0.0
        else:
            self.fabric = None
            self._rack_of = None
            self._num_racks = 0
            self._rack_pop = None
            self.booked_tor = None
            self.booked_spine = 0.0

    # -- free-core index (DESIGN.md §7) -----------------------------------------

    def _move(self, arr: np.ndarray, src: List[int], dst: List[int],
              counts: List[int], inv) -> None:
        """Re-bucket the nodes ``arr`` (distinct, batch order) group by
        group: the ``counts[g]`` nodes of group ``g`` (node ``i`` is in
        group ``inv[i]``, inverse as in :func:`~repro.sim.node.distinct`)
        move from free-core count ``src[g]`` to ``dst[g]``.  They draw
        fresh stamps in batch order and append to their destinations, so
        each bucket receives them in the order per-node moves would; the
        entries they leave behind die in place.  Every node's count
        changes (:meth:`place_slices` rejects zero-process slices)."""
        live, head, tail = self._count, self._head, self._tail
        if len(arr) <= _NARROW:
            # A few nodes: scalar appends beat per-call array overhead.
            if inv is None:
                src, dst = src * len(arr), dst * len(arr)
            else:
                src, dst = [src[g] for g in inv], [dst[g] for g in inv]
            ids, sts, stamp = self._bids, self._bst, self._stamp
            for nid, old, new in zip(arr.tolist(), src, dst):
                clock = self._clock
                self._clock = clock + 1
                stamp[nid] = clock
                if head[old] < tail[old] and ids[old][head[old]] == nid:
                    head[old] += 1  # taken from the front, as first-n does
                live[old] -= 1
                live[new] += 1
                end = tail[new]
                if end == len(ids[new]):
                    end = self._compact(new, room=1)
                ids[new][end] = nid
                sts[new][end] = clock
                tail[new] = end + 1
                if tail[old] - head[old] > 2 * live[old]:
                    self._compact(old)
            return
        count = len(arr)
        clock = self._clock
        self._clock = clock + count
        stamps = np.arange(clock, clock + count, dtype=np.int64)
        self._stamp[arr] = stamps
        came: Dict[int, int] = {}
        gone: Dict[int, int] = {}
        for old, new, c in zip(src, dst, counts):
            came[new] = came.get(new, 0) + c
            gone[old] = gone.get(old, 0) + c
        if len(came) == 1:
            f, = came
            live[f] += count
            self._push(f, arr, stamps)
        else:
            # One stable sort by destination (a radix sort on int16
            # keys, linear) keeps batch order within each bucket.
            order = np.argsort(np.asarray(dst, dtype=np.int16)[inv],
                               kind="stable")
            by_dst = arr[order]
            order += clock
            start = 0
            for f in sorted(came):
                end = start + came[f]
                live[f] += came[f]
                self._push(f, by_dst[start:end], order[start:end])
                start = end
        first = int(arr[0])
        for f, k in gone.items():
            live[f] -= k
            h = head[f]
            front = self._bids[f][h:h + count]
            # The whole batch left f (so none entered it) from its front,
            # as first-n placements do: skip those dead entries now.
            if k == count and h + count <= tail[f] and front[0] == first \
                    and bool((front == arr).all()):
                head[f] = h + count
            if tail[f] - head[f] > 2 * live[f]:
                self._compact(f)

    def _push(self, free: int, arr: np.ndarray, stamps: np.ndarray) -> None:
        """Append (node, stamp) entries to bucket ``free``."""
        tail = self._tail[free]
        end = tail + len(arr)
        if end > len(self._bids[free]):
            tail = self._compact(free, room=len(arr))
            end = tail + len(arr)
        self._bids[free][tail:end] = arr
        self._bst[free][tail:end] = stamps
        self._tail[free] = end

    def _entries(self, free: int) -> Tuple[np.ndarray, np.ndarray]:
        """Bucket ``free``'s entries and their liveness mask."""
        lo, hi = self._head[free], self._tail[free]
        ids = self._bids[free][lo:hi]
        return ids, self._stamp[ids] == self._bst[free][lo:hi]

    def _compact(self, free: int, room: int = 0) -> int:
        """Rewrite bucket ``free`` as its live entries only, at the front
        of its arrays; returns its new tail.  The arrays regrow unless
        half of them would stay free after ``room`` more entries, so a
        full bucket is compacted only after as many appends."""
        if not (room or self._count[free]):
            self._head[free] = self._tail[free] = 0
            return 0
        ids, live = self._entries(free)
        kept_ids = ids[live]
        kept_sts = self._bst[free][self._head[free]:self._tail[free]][live]
        kept = len(kept_ids)
        if 2 * (kept + room) > len(self._bids[free]):
            size = 2 * (kept + room)
            self._bids[free] = np.empty(size, dtype=np.int64)
            self._bst[free] = np.empty(size, dtype=np.int64)
        self._bids[free][:kept] = kept_ids
        self._bst[free][:kept] = kept_sts
        self._head[free] = 0
        self._tail[free] = kept
        return kept

    def _first(self, free: int, n: int) -> np.ndarray:
        """The first ``n`` members of bucket ``free`` (all of them when
        it has fewer).  A few are read one entry at a time from the
        head; otherwise, or past a run of dead entries, the arrays are
        read in chunks that double in size, so skipping ``d`` dead
        entries takes O(log d) array calls.  A dead prefix is dropped by
        advancing the head."""
        lo, hi = self._head[free], self._tail[free]
        ids, sts, stamp = self._bids[free], self._bst[free], self._stamp
        found: List[int] = []
        if n <= _NARROW:
            end = min(hi, lo + 2 * _NARROW)
            while lo < end and len(found) < n:
                nid = int(ids[lo])
                if stamp[nid] == sts[lo]:
                    found.append(nid)
                elif not found:
                    self._head[free] = lo + 1
                lo += 1
            if len(found) == n or lo == hi:
                return np.array(found, dtype=np.int64)
        parts = [np.array(found, dtype=np.int64)] if found else []
        lead = not found
        n -= len(found)
        size = max(n, 64)
        while n > 0 and lo < hi:
            stop = min(hi, lo + size)
            seg = ids[lo:stop]
            live = stamp[seg] == sts[lo:stop]
            hits = seg[live][:n]
            if lead:
                lead = not len(hits)
                self._head[free] = stop if lead else lo + int(live.argmax())
            parts.append(hits)
            n -= len(hits)
            lo = stop
            size *= 2
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else ids[:0].copy()

    def place_slices(self, nodes: Sequence[int], job_id: int, program,
                     procs: Sequence[int], ways: int, bw: float,
                     n_nodes: int, net: float = 0.0) -> Set[int]:
        """Install one job's slices on all its nodes in one batch: node
        ``nodes[i]`` gets ``procs[i]`` processes (both int64 arrays, or
        sequences converted to them).  Returns the job's co-runners —
        the jobs already resident on any of its nodes, read from the
        resident-mix transitions — which the committed
        :class:`~repro.sim.runtime.Decision` carries to the runtime.

        Semantically one node at a time in batch order, but the work is
        per distinct (prior mix, process count) group: each group is
        validated against its mix's entries of the per-mix arrays, moves
        through one mix transition (which fills the new ids' entries) and
        moves its nodes between one pair of free-core buckets.
        Validation runs *before* any mutation, so a raised
        :class:`AllocationError` leaves the cluster untouched — no
        caller-side rollback.
        """
        arr = np.asarray(nodes, dtype=np.int64)
        procs_arr = np.asarray(procs, dtype=np.int64)
        count = len(arr)
        if count == 0:
            raise AllocationError("placement names no nodes")
        if procs_arr.shape != arr.shape:
            raise AllocationError("placement nodes and procs disagree")
        if net < 0:
            raise AllocationError("network booking must be non-negative")
        # Short batches check as lists, long ones in linear array
        # passes (DESIGN.md §7).
        if count <= _SHORT:
            procs_list = procs_arr.tolist()
            low, high = min(procs_list), max(procs_list)
            twice = len(set(arr.tolist())) != count
        else:
            low, high = int(procs_arr.min()), int(procs_arr.max())
            # Scatter positions, gather them back: a node named twice
            # reads another occurrence's position at one of them.
            at = np.arange(count)
            self._scratch[arr] = at
            twice = bool((self._scratch[arr] != at).any())
        if low < 1:
            raise AllocationError("per-node process counts must be positive")
        if twice:
            raise AllocationError("placement names a node twice")
        mixes = self.mixes
        partitioned = self.partitioned
        cache = self.spec.node.cache
        if partitioned and ways < cache.min_ways:
            raise AllocationError(
                f"job {job_id} requested {ways} ways; minimum is "
                f"{cache.min_ways} (associativity floor)"
            )
        meta = mixes.meta.get(job_id)
        if meta is not None:
            if meta[4] != bw or (partitioned and meta[3] != ways):
                # The resident mix key names jobs, not bookings: a job
                # books the same ways and bandwidth on every node it
                # occupies.
                raise AllocationError(
                    f"job {job_id} must book the same ways and bandwidth "
                    f"on every node"
                )
            if meta[5] != net:
                raise AllocationError(
                    f"job {job_id} must book the same network share on "
                    f"every node"
                )
            # A node already hosts the job iff its mix is one the job
            # holds.
            held = mixes.held.get(job_id, {})
            mids = mixes.mix[arr].tolist()
            if not held.keys().isdisjoint(mids):
                first = next(i for i, m in enumerate(mids) if m in held)
                raise AllocationError(
                    f"job {job_id} already on node {int(arr[first])}")
        max_parts = cache.max_partitions
        # More processes than cores cannot fit, nor encode as a group.
        bad = high > mixes.cores
        if not bad:
            groups = mixes.groups(arr, procs_arr)
            src = [mixes.free_cores.item(m) for m in groups[0]]
            for m, p, free in zip(groups[0], groups[1], src):
                if p > free or partitioned and (
                        mixes.parts.item(m) >= max_parts
                        or mixes.free_ways.item(m) < ways):
                    bad = True
                    break
        if bad:
            # Only a failing batch walks the nodes, to raise the first
            # offending node's own error.
            mids = mixes.mix[arr]
            old_free = mixes.free_cores[mids].tolist()
            procs_list = procs_arr.tolist()
            free_ways = mixes.free_ways[mids].tolist()
            parts = mixes.parts[mids].tolist()
            for i, nid in enumerate(arr.tolist()):
                if procs_list[i] > old_free[i]:
                    raise AllocationError(
                        f"node {nid} has {old_free[i]} free cores; "
                        f"{procs_list[i]} requested"
                    )
                if partitioned:
                    if parts[i] >= max_parts:
                        raise AllocationError(
                            f"node already has {parts[i]} CAT partitions "
                            f"(max {max_parts})"
                        )
                    if ways > free_ways[i]:
                        raise AllocationError(
                            f"job {job_id} requested {ways} ways; "
                            f"only {free_ways[i]} free"
                        )
            raise AllocationError("place_slices validation out of sync")
        mixes.meta[job_id] = (
            program, n_nodes, count if meta is None else meta[2] + count,
            ways, bw, net,
        )
        ids, corunners = mixes.add(arr, job_id, groups)
        self.counters["mix_transitions"] += len(ids)
        if count > 1 and self.fabric is not None:
            self._place_cross(arr, job_id, program, net, count)
        self._move(arr, src, [f - p for f, p in zip(src, groups[1])],
                   groups[2], groups[3])
        return corunners

    def remove_slices(self, nodes: Sequence[int], job_id: int) -> Set[int]:
        """Remove one job's slices from all its nodes in one batch
        (semantically one node at a time in batch order, with a
        single ``release_epoch`` bump — the epoch is only ever compared
        for equality, so batching the bumps is observationally
        identical).  Returns the job's co-runners: the jobs it leaves
        behind on the nodes it shared, read from the resident-mix
        transitions.

        As in :meth:`place_slices`, the work is one mix transition per
        distinct prior mix, whose new id's booked sums are its
        survivors' bookings re-summed in insertion order (float
        subtraction does not invert addition), and one free-core bucket
        move per group.  ``nodes`` is an int64 array
        (:attr:`Placement.nodes`) or a sequence converted to one.
        """
        arr = np.asarray(nodes, dtype=np.int64)
        mixes = self.mixes
        olds, counts, inv = distinct(mixes.mix[arr], len(mixes.keys))
        held = mixes.held.get(job_id, ())
        if any([m not in held for m in olds]):
            # Validation precedes any mutation, so the raise leaves the
            # cluster untouched.
            for nid, m in zip(arr.tolist(), mixes.mix[arr].tolist()):
                if m not in held:
                    raise AllocationError(f"job {job_id} not on node {nid}")
        entry = mixes.meta[job_id]
        src = [mixes.free_cores.item(m) for m in olds]
        ids, corunners = mixes.drop(arr, job_id, (olds, counts, inv))
        self.counters["mix_transitions"] += len(ids)
        count = len(arr)
        if entry[2] <= count:
            del mixes.meta[job_id]
            if self.cross_jobs.pop(job_id, None) is not None:
                self._links_dirty = True
        else:
            mixes.meta[job_id] = entry[:2] + (entry[2] - count,) + entry[3:]
        shares = self._cross.get(job_id)
        if shares is not None:
            self._drop_cross(arr, job_id, shares)
        self._move(arr, src, [mixes.free_cores.item(m) for m in ids],
                   counts, inv)
        self.release_epoch += 1
        return corunners

    # -- fabric link accounting (DESIGN.md §13) ---------------------------------

    def _place_cross(self, arr: np.ndarray, job_id: int, program,
                     net: float, count: int) -> None:
        """Register a placement that spans racks, on both views of the
        links.  Physically, a nonzero network fraction puts the job in
        :attr:`cross_jobs` with its rack ids and per-rack uplink loads
        (:meth:`FabricSpec.uplink_loads`).  Booked, a nonzero ``net``
        installs the cross-rack share of the booking: per node in the
        job's ``_cross`` entry and added to ``booked_cross``, then the
        link aggregates are re-derived.  Called only with an active
        fabric and ``count > 1``.

        A job spread over ``count`` nodes keeps traffic to rack-mates
        in-rack: a node sharing its rack with ``same`` of the job's
        nodes sends the fraction ``(count - same) / (count - 1)`` of its
        booking through the ToR uplink (uniform all-to-all peers, one
        fixed operation order so the invariant replay can reproduce the
        value exactly).  A single-rack placement books no cross traffic
        at all — compact placements are free on the fabric, which is
        exactly the asymmetry the locality-aware spreading exploits.
        """
        racks = self._rack_of[arr]
        if (racks == racks[0]).all():
            return
        # Nodes per rack by counting: ascending rack ids, as a sort
        # would give, in linear time.
        full = np.bincount(racks, minlength=self._num_racks)
        uniq = (full != 0).nonzero()[0]
        cnt = full[uniq]
        frac = program.comm.network_fraction(count)
        if frac != 0.0:
            self.cross_jobs[job_id] = (
                uniq, self.fabric.uplink_loads(frac, count, cnt), frac)
            self._links_dirty = True
        if net == 0.0:
            return
        cross = net * (count - full[racks]) / (count - 1)
        self._cross.setdefault(job_id, {}).update(
            zip(arr.tolist(), cross.tolist()))
        # Same discipline as booked_net: one elementwise IEEE addition
        # extends the per-node left-to-right sum exactly.
        self.booked_cross[arr] += cross
        self._refresh_links(uniq)

    def _drop_cross(self, arr: np.ndarray, job_id: int,
                    shares: Dict[int, float]) -> None:
        """Take the removed job's cross shares off the nodes ``arr``
        (already moved to their new mixes): each such node's
        ``booked_cross`` is re-summed over its surviving residents'
        shares in insertion order, exact zero when none is left, and
        the link aggregates of the batch's racks are re-derived."""
        cross = self._cross
        booked = self.booked_cross
        keys = self.mixes.keys
        mix = self.mixes.mix
        dropped = False
        for nid in arr.tolist():
            if shares.pop(nid, None) is None:
                continue
            dropped = True
            total = 0.0
            for j, _ in keys[mix[nid]]:
                share = cross.get(j, {}).get(nid)
                if share is not None:
                    total += share
            booked[nid] = total
        if not shares:
            del cross[job_id]
        if dropped:
            touched = np.bincount(self._rack_of[arr],
                                  minlength=self._num_racks)
            self._refresh_links((touched != 0).nonzero()[0])

    def _refresh_links(self, racks: np.ndarray) -> None:
        """Re-derive ``booked_tor`` for the given racks and
        ``booked_spine``, as canonical left-to-right sums over
        ``booked_cross`` in node-id order (rack order for the spine) —
        the exact-float contract :meth:`verify_columns` checks.  Racks
        whose members' cross bookings did not change keep their stored
        sums (those are unchanged by construction)."""
        tor = self.booked_tor
        rack_size = self.fabric.rack_size
        n = self.spec.num_nodes
        booked = self.booked_cross
        for r in racks.tolist():
            lo = r * rack_size
            tor[r] = left_sum(booked[lo:min(lo + rack_size, n)].tolist())
        self.booked_spine = left_sum(tor.tolist())

    def link_loads(self):
        """``None`` unless :attr:`cross_jobs` changed since the last
        call; then the physical loads re-derived from it as ``(job ids,
        per-rack ToR utilization, spine utilization, per-job route
        load)``, the job ids sorted.

        Deterministic by construction: jobs accumulate in sorted-id
        order (:meth:`FabricSpec.link_utilization` keeps the scalar
        left-to-right sums), so the invariant checker's replay
        (:func:`repro.obs.invariants.check_trace`) reproduces every
        float exactly from the trace's ``start`` records."""
        if not self._links_dirty:
            return None
        self._links_dirty = False
        cross = self.cross_jobs
        jids = sorted(cross)
        entries = [cross[jid] for jid in jids]
        tor_util, spine_util, route = self.fabric.link_utilization(
            self.spec.num_nodes,
            [e[0] for e in entries], [e[1] for e in entries],
        )
        counters = self.counters
        counters["fabric_link_refreshes"] += 1
        counters["fabric_route_evals"] += len(jids)
        return jids, tor_util, spine_util, route

    # -- availability (fault injection, DESIGN.md §8) ---------------------------

    def fail_node(self, node_id: int) -> None:
        """Take a node down.  The caller (the runtime's ``NODE_FAIL``
        handler) must have evicted every resident slice first; the node
        is then pulled out of the free-core index so no placement path
        can see it until :meth:`recover_node`."""
        if node_id in self._down:
            raise SimulationError(f"node {node_id} is already down")
        if self.mixes.mix[node_id]:
            raise SimulationError(
                f"cannot fail node {node_id} with resident slices"
            )
        # Its entry dies with its stamp; the next move compacts the
        # bucket if dead entries come to outnumber live ones.  A down
        # node carries the empty mix until it recovers.
        self._stamp[node_id] = -1
        self._count[self.spec.node.cores] -= 1
        self._down[node_id] = None

    def recover_node(self, node_id: int) -> None:
        """Bring a failed node back, empty.  Recovery adds capacity the
        way a slice removal does, so it bumps ``release_epoch`` (the
        find_nodes negative cache must forget failures recorded against
        the smaller cluster)."""
        if node_id not in self._down:
            raise SimulationError(f"node {node_id} is not down")
        del self._down[node_id]
        free = self.spec.node.cores
        clock = self._clock
        self._clock = clock + 1
        self._stamp[node_id] = clock
        self._count[free] += 1
        self._push(free, np.array([node_id]), np.array([clock]))
        self.release_epoch += 1

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    def down_nodes(self) -> List[int]:
        """Currently failed node ids (deterministic insertion order)."""
        return list(self._down)

    # -- queries -----------------------------------------------------------------

    def idle_nodes(self) -> List[int]:
        """Fully idle node ids (deterministic arrival order)."""
        return self.bucket(self.spec.node.cores).tolist()

    def idle_count(self) -> int:
        """Number of fully idle nodes (O(1))."""
        return self._count[self.spec.node.cores]

    def first_idle(self, n: int) -> np.ndarray:
        """The first ``n`` fully idle node ids in arrival order, without
        materializing the whole idle bucket (== ``idle_nodes()[:n]``)."""
        return self._first(self.spec.node.cores, n)

    def bucket(self, free: int) -> np.ndarray:
        """The up nodes with exactly ``free`` free cores, in arrival
        order (a fresh array)."""
        ids, live = self._entries(free)
        return ids[live]

    def free_levels(self, min_free: int) -> List[int]:
        """The free-core counts >= ``min_free`` some up node has,
        largest first."""
        live = self._count
        return [f for f in reversed(range(max(min_free, 0), len(live)))
                if live[f]]

    def _tor_mask(self, sub, net: float,
                  idle_skips_tor: bool = False) -> np.ndarray:
        """Per-node ToR term of the host test over the slots ``sub`` (an
        id array, or ``slice(None)`` for all), under an active fabric and
        a network demand: the node's rack must have uplink headroom for
        the demand in the worst case (all of it crossing the spine) — a
        conservative feasibility mask.  ``idle_skips_tor`` exempts fully
        idle nodes, which find_nodes admits by the empty mix's entry of
        :meth:`MixTable.fits` alone (DESIGN.md §11)."""
        cap = self._rack_pop / self.fabric.oversubscription
        tor = (self.booked_tor + net <= cap + 1e-9)[self._rack_of[sub]]
        if idle_skips_tor:
            tor |= self.mixes.mix[sub] == 0
        return tor

    def _ways_unplaceable(self, ways: int) -> bool:
        """Whether ``ways`` dedicated ways fit no node at all (below the
        associativity floor or above the LLC), the range check
        :meth:`MixTable.fits` leaves to its callers."""
        spec = self.spec.node
        return self.partitioned and (
            ways < spec.cache.min_ways or ways > spec.llc_ways)

    def count_hosts(self, cores: int, ways: int, bw: float,
                    net: float) -> int:
        """Number of up nodes that could host the slice: exactly the
        nodes find_nodes' bucket walk qualifies with no scan cap
        (:meth:`scan_hosts` on part-used nodes, no ToR test on idle
        ones; DESIGN.md §7).  A sum of node counts over the mixes that
        pass :meth:`MixTable.fits` — down nodes carry the empty mix —
        except that under an active fabric a network demand's ToR term
        is per rack, so it masks the nodes."""
        if self._ways_unplaceable(ways):
            return 0
        mixes = self.mixes
        ok = mixes.fits(cores, ways, bw, net)
        if net > 0.0 and self.fabric is not None:
            ok = ok[mixes.mix] & self._tor_mask(slice(None), net,
                                                idle_skips_tor=True)
            if self._down:
                ok[list(self._down)] = False
            return int(np.count_nonzero(ok))
        hosts = int(mixes.refs @ ok)
        return hosts - len(self._down) if ok[0] else hosts

    def scan_hosts(self, ids: Iterable[int], cores: int, ways: int,
                   bw: float, net: float, limit: int,
                   bucket: int = None) -> np.ndarray:
        """First ``limit`` node ids (scanned in the given order) that can
        host a slice of these demands, plus the ToR headroom test under
        an active fabric (:meth:`_tor_mask`).

        One mix-level demand test (:meth:`MixTable.fits`) gathered
        through the nodes' mix ids.  A caller scanning a whole free-core
        bucket passes its key, which makes the core comparison a
        foregone conclusion.  find_nodes scans only once its
        :meth:`count_hosts` precheck says the bucket walk will succeed.
        """
        arr = _id_array(ids)
        if arr.size == 0 or self._ways_unplaceable(ways):
            return arr[:0].copy()
        check_cores = not (bucket is not None and bucket >= cores)
        if not (check_cores or bw > 0.0 or self.partitioned or net > 0.0):
            hits = arr[:limit].copy()
            self.counters["nodes_scanned"] += int(hits.size)
            return hits
        fits = self.mixes.fits(cores if check_cores else None, ways, bw, net)
        tor = net > 0.0 and self.fabric is not None
        mix = self.mixes.mix
        # Chunked scan with early stop: callers only consume the first
        # ``limit`` qualifiers (in id-array order, which chunking
        # preserves), so wide buckets stop as soon as the quota is
        # filled instead of testing every member.
        counters = self.counters
        out: List[np.ndarray] = []
        found = 0
        size = int(arr.size)
        chunk = max(512, limit)
        start = 0
        while start < size and found < limit:
            sub = arr[start:start + chunk]
            start += chunk
            counters["nodes_scanned"] += int(sub.size)
            ok = fits[mix[sub]]
            if tor:
                ok &= self._tor_mask(sub, net)
            out.append(sub[ok])
            found += len(out[-1])
        hits = out[0] if len(out) == 1 else np.concatenate(out)
        return hits[:limit]

    def pick_idlest(self, ids: Sequence[int], n: int, beta: float,
                    rack_aware: bool = False) -> np.ndarray:
        """The ``n`` ids with the lowest occupancy metric
        (:meth:`MixTable.occupancy`, gathered through the nodes' mix
        ids), ties broken by node id, metric-ascending.

        ``rack_aware`` (locality-aware SNS under an active fabric)
        changes selection in two steps.  If any single rack contributes
        at least ``n`` candidates, the pick is confined to the rack of
        the idlest such candidate — the job fills within one rack and
        crosses no spine link at all.  Otherwise a tie-break is inserted
        *between* metric and node id: among equal-metric candidates,
        prefer nodes whose rack contributes more candidates, so the
        picked set concentrates in as few racks as possible.  With no
        active fabric the flag is inert — selection order is exactly
        the flat one.
        """
        mixes = self.mixes
        arr = _id_array(ids)
        metric = mixes.occupancy(beta)[mixes.mix[arr]]
        if rack_aware and self.fabric is not None:
            racks = self._rack_of[arr]
            pop = np.bincount(racks, minlength=self._num_racks)[racks]
            full = pop >= n
            if full.any():
                # Fill within one rack before crossing the spine:
                # confine the pick to the rack of the idlest candidate
                # that has enough rack-mates in this candidate set.
                by_metric = np.lexsort((arr, metric))
                best = by_metric[full[by_metric]][0]
                keep = racks == racks[best]
                arr = arr[keep]
                metric = metric[keep]
                order = np.lexsort((arr, metric))[:n]
            else:
                order = np.lexsort((arr, -pop, metric))[:n]
        else:
            order = np.lexsort((arr, metric))[:n]
        return arr[order]

    def count_with_free_cores(self, min_free: int) -> int:
        """Number of up nodes with at least ``min_free`` free cores."""
        return sum(self._count[max(min_free, 0):])

    def arbitration(self, node_id: int) -> ArbitrationView:
        """Bandwidth grants, network load, and effective ways on one
        node: its mix's view, resolved once per mix lifetime."""
        m = self.mixes.mix.item(node_id)
        self.arbitration_batch([m])
        return self.mixes.views[m]

    def arbitration_batch(self, mix_ids: List[int]) -> None:
        """Resolve the views of the distinct mixes ``mix_ids`` (a list,
        in first-seen order); callers read ``mixes.views[m]``.

        An unresolved mix is a hit in the signature-keyed view cache or
        a table in one call to :func:`repro.perfmodel.batch.
        arbitrate_nodes`, one table per distinct signature.  A mix's
        job-id-independent signature is re-interned from its key and
        the per-job ``meta`` bookings; a kernel solve takes its slices
        from the mix (:meth:`MixTable.slices`)."""
        mixes = self.mixes
        views = mixes.views
        todo = [m for m in mix_ids if views[m] is None]
        if not todo:
            return
        view_cache = self._view_cache
        meta = mixes.meta
        partitioned = self.partitioned
        enforce_bw = self.enforce_bw
        solve: Dict[tuple, list] = {}
        hits = 0
        for m in todo:
            mix = mixes.keys[m]
            programs = []
            items = []
            # The residual ways (used cores when unpartitioned) follow
            # from the items, so they need no place in the key.
            for j, p in mix:
                e = meta[j]
                programs.append(e[0])
                items.append((id(e[0]), p, e[1], e[3] if partitioned else 0,
                              e[4] if enforce_bw else -1.0))
            key = tuple(items)
            jids = tuple([j for j, _ in mix])
            entry = view_cache.get(key)
            if entry is not None and all(map(is_, entry[0], programs)):
                hits += 1
                views[m] = (jids, entry[1], entry[2], entry[3])
            elif key in solve:
                solve[key].append((m, jids))
            else:
                solve[key] = [m, (m, jids)]
        counters = self.counters
        counters["view_cache_hits"] += hits
        if not solve:
            return
        tables = [mixes.slices(waiting[0], self.share_residual, enforce_bw)
                  for waiting in solve.values()]
        solved = batch.arbitrate_nodes(self.spec.node, tables)
        counters["arb_nodes_solved"] += len(tables)
        counters["batch_calls"] += 1
        counters["batch_slices"] += sum(map(len, tables))
        if len(view_cache) >= MAX_ENTRIES:
            view_cache.clear()
        for (key, waiting), slices, (grants, net_load) in zip(
            solve.items(), tables, solved
        ):
            entry = (
                tuple(s.program for s in slices),
                tuple(grants[s.job_id] for s in slices),
                net_load,
                tuple(s.effective_ways for s in slices),
            )
            view_cache[key] = entry
            for m, jids in waiting[1:]:
                views[m] = (jids, entry[1], entry[2], entry[3])

    def verify_index(self) -> None:
        """Invariant check of the free-core index, used by tests and
        defensive assertions: every bucket's live span lies within its
        arrays, stamps strictly increase along every bucket, every live
        entry sits in its node's free-core bucket, every up node has
        exactly one live entry and no down node has one (nor a
        resident), and the live counts equal a bincount of free cores
        over the up nodes."""
        mixes = self.mixes
        free_cores = mixes.free_cores[mixes.mix]
        members = []
        for free in range(len(self._count)):
            if not 0 <= self._head[free] <= self._tail[free] \
                    <= len(self._bids[free]):
                raise SimulationError(f"bucket {free}: head/tail out of range")
            ids, live = self._entries(free)
            sts = self._bst[free][self._head[free]:self._tail[free]]
            if bool((np.diff(sts) <= 0).any()):
                raise SimulationError(f"bucket {free}: stamps not increasing")
            members.append(ids[live])
            if bool((free_cores[members[-1]] != free).any()):
                raise SimulationError(
                    f"bucket {free} holds a node with another free-core count")
        up = np.ones(self.spec.num_nodes, dtype=np.int64)
        up[list(self._down)] = 0
        if not np.array_equal(np.bincount(np.concatenate(members),
                                          minlength=len(up)), up):
            raise SimulationError(
                "free-core index must hold each up node once, no down node")
        if mixes.mix[up == 0].any():
            raise SimulationError("a down node carries residents")
        expect = np.bincount(free_cores[up == 1], minlength=len(self._count))
        if self._count != expect.tolist():
            raise SimulationError(
                f"free-core counts {self._count} != {expect.tolist()}")

    def verify_columns(self) -> None:
        """Check every live mix's entries of the per-mix arrays against
        values recomputed from scratch from its key and the per-job
        bookings (:func:`~repro.sim.node.recount`, which reads no
        per-mix array), and every node's ``booked_cross`` against its
        residents' cross shares — *exact* equality, including the float
        bookings (contractually bit-identical to a left-to-right re-sum
        in resident insertion order).  Also enforces the mix table's
        structure: keys name each job at most once; the per-job meta
        slice counts match the installed slices; every cross share sits
        on a node its job occupies; refcounts equal node counts; freed
        ids are unreachable and carry no view or rates; a live mix has
        one rate slot per resident; ``held`` maps exactly the resident
        jobs, each to the count of its nodes per mix.  Test /
        defensive-assertion hook, like :meth:`verify_index`."""
        spec = self.spec.node
        mixes = self.mixes
        meta = mixes.meta
        keys = mixes.keys
        mix_ids = mixes.mix.tolist()
        for nid, m in enumerate(mix_ids):
            if keys[m] is None:
                raise SimulationError(f"node {nid}: carries freed mix {m}")
            booked_cross = 0.0
            for j, _ in keys[m]:
                share = self._cross.get(j, {}).get(nid)
                if share is not None:
                    booked_cross += share
            got = self.booked_cross[nid].item()
            if got != booked_cross:
                raise SimulationError(
                    f"node {nid}: booked_cross {got!r} != {booked_cross!r}")
        refcounts: Dict[int, int] = {}
        held: Dict[int, Dict[int, int]] = {}
        nodes = np.bincount(mixes.mix, minlength=len(keys)).tolist()
        free = set(mixes.free)
        for m, key in enumerate(keys):
            live = key is not None and mixes.ids.get(key) == m
            rates = mixes.rates[m]
            if live == (m in free) or (not live and (
                    nodes[m] or mixes.refs[m] or mixes.views[m] is not None
                    or rates is not None)):
                raise SimulationError(f"mix {m}: freed id still reachable")
            if not live:
                continue
            if mixes.refs[m] != nodes[m] or (m and not nodes[m]):
                raise SimulationError(
                    f"mix {m}: refcount {mixes.refs[m]} != {nodes[m]} nodes"
                )
            if rates is None or len(rates) != len(key):
                raise SimulationError(
                    f"mix {m}: rates {rates} do not match its "
                    f"{len(key)} residents"
                )
            jobs = [j for j, _ in key]
            if len(set(jobs)) != len(jobs):
                raise SimulationError(
                    f"mix {m}: duplicate resident job: {jobs}")
            for j, p in key:
                if j not in meta:
                    raise SimulationError(
                        f"mix {m}: job {j} has no meta entry")
                if not 1 <= p <= spec.cores:
                    raise SimulationError(
                        f"mix {m}: job {j} holds {p} processes")
                refcounts[j] = refcounts.get(j, 0) + nodes[m]
                held.setdefault(j, {})[m] = nodes[m]
            for name, value in recount(key, meta, spec,
                                       self.partitioned).items():
                got = getattr(mixes, name).item(m)
                if got != value:
                    raise SimulationError(
                        f"mix {m}: {name} {got!r} != {value!r} recomputed")
        if len(mixes.ids) + len(free) != len(keys):
            raise SimulationError("mix table index out of sync")
        if self._cross and self.fabric is None:
            raise SimulationError("cross shares without an active fabric")
        for jid, shares in self._cross.items():
            for nid in shares:
                if jid not in [j for j, _ in keys[mix_ids[nid]]]:
                    raise SimulationError(
                        f"job {jid}: cross share on node {nid}, which it "
                        f"does not occupy")
        if self.fabric is not None:
            num_nodes = self.spec.num_nodes
            for r in range(self._num_racks):
                lo, hi = self.fabric.rack_span(r, num_nodes)
                expect = left_sum(self.booked_cross[lo:hi].tolist())
                if float(self.booked_tor[r]) != expect:
                    raise SimulationError(
                        f"rack {r}: booked_tor "
                        f"{float(self.booked_tor[r])!r} != {expect!r}"
                    )
            expect = left_sum(self.booked_tor.tolist())
            if self.booked_spine != expect:
                raise SimulationError(
                    f"booked_spine {self.booked_spine!r} != {expect!r}"
                )
        if set(meta) != set(refcounts):
            raise SimulationError(
                f"meta names jobs {sorted(meta)}, slices hold "
                f"{sorted(refcounts)}")
        for jid, n_slices in refcounts.items():
            if meta[jid][2] != n_slices:
                raise SimulationError(
                    f"job {jid}: meta refcount {meta[jid][2]} != "
                    f"{n_slices} installed slices"
                )
        for jid in sorted(mixes.held.keys() | held.keys()):
            if mixes.held.get(jid) != held.get(jid):
                raise SimulationError(
                    f"job {jid}: held mixes {mixes.held.get(jid)} != "
                    f"{held.get(jid)} counted over its nodes"
                )

    def gauge_columns(self) -> np.ndarray:
        """Live per-node gauge matrix: rows are
        :data:`repro.obs.timeseries.CHANNELS` (free cores, booked GB/s,
        allocated dedicated ways, resident job count), columns are
        nodes, gathered through the nodes' mix ids.  Down nodes read
        zero on every channel.  This is the ground truth the
        trace-replayed series
        (:func:`repro.obs.timeseries.timeseries_from_trace`) is
        cross-validated against.

        Unpartitioned ledgers never allocate ways, so the alloc_ways row
        is identically zero for CE/CS — matching the way-capacity law in
        :mod:`repro.obs.invariants`.
        """
        mixes = self.mixes
        mix = mixes.mix
        gauges = np.empty((4, self.spec.num_nodes), dtype=np.float64)
        gauges[0] = mixes.free_cores[mix]
        gauges[1] = mixes.booked_bw[mix]
        if self.partitioned:
            gauges[2] = self.spec.node.llc_ways - mixes.free_ways[mix]
        else:
            gauges[2] = 0.0
        gauges[3] = np.array([0 if key is None else len(key)
                              for key in mixes.keys])[mix]
        for nid in self._down:
            gauges[:, nid] = 0.0
        return gauges

    def resident_jobs_on(self, node_ids: Iterable[int]) -> Set[int]:
        """Union of job ids resident on the given nodes (the jobs of
        their distinct mixes)."""
        arr = _id_array(node_ids)
        keys = self.mixes.keys
        return {j for m in set(self.mixes.mix[arr].tolist())
                for j, _ in keys[m]}
