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
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AllocationError, SimulationError
from repro.hardware.topology import ClusterSpec
from repro.perfmodel import batch
from repro.perfmodel.context import MAX_ENTRIES, PerfContext
from repro.perfmodel.contention import arbitrate_node, node_network_load
from repro.sim.node import MixTable, NodeColumns, NodeState, SliceColumns

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
    #: Perf-model context of the owning simulation: its cache mode and
    #: batched-kernel counters.  Injected by the owning
    #: :class:`~repro.sim.runtime.Simulation` (construction-injection
    #: rule, DESIGN.md §9); a standalone ClusterState gets a private
    #: default context.
    ctx: Optional[PerfContext] = None
    nodes: List[NodeState] = field(init=False)
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
    #: Arbitration/scan instrumentation, surfaced on SimulationResult.
    counters: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        if self.ctx is None:
            self.ctx = PerfContext()
        # The struct-of-arrays node hot state (DESIGN.md §7): the columns
        # ARE the per-node free capacities — every NodeState below is a
        # thin view over its slot, and the vectorized paths (scan_hosts,
        # pick_idlest, place_slices/remove_slices) read and write the
        # contiguous arrays directly.  There is no shadow copy to flush.
        n = self.spec.num_nodes
        self.columns = NodeColumns(n, self.spec.node)
        # Per-slice SoA plane (job id / procs / ways / bw / net per dense
        # resident slot), kept in lockstep with the node columns.
        self.scols = SliceColumns(n, self.spec.node.cores)
        # Interned resident mix per node (DESIGN.md §7): the per-mix
        # arbitration views and batch transitions live here.
        self.mixes = MixTable(n, self.spec.node.cores)
        self.nodes = [
            NodeState(
                node_id=i,
                spec=self.spec.node,
                partitioned=self.partitioned,
                enforce_bw=self.enforce_bw,
                share_residual=self.share_residual,
                columns=self.columns,
                scols=self.scols,
                slot=i,
            )
            for i in range(n)
        ]
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
        #: A pristine node: every idle node has exactly its state, so its
        #: ``can_host`` answers for all of them (find_nodes' idle branch).
        self.idle_probe = NodeState(node_id=-1, spec=self.spec.node,
                                    partitioned=self.partitioned)
        self._view_cache = {}
        self._down = {}
        self.counters = {
            "mix_transitions": 0,
            "view_cache_hits": 0,
            "arb_nodes_solved": 0,
            "nodes_scanned": 0,
            "find_fail_hits": 0,
        }
        # Negative placement-search cache: demand tuples find_nodes
        # failed for at the given release epoch (see find_nodes —
        # placements only consume, so a failure holds until a removal).
        self.find_fail: Tuple[int, set] = (-1, set())
        # Leaf-spine fabric (DESIGN.md §13).  ``_fabric`` is non-None
        # only when the spec attaches a FabricSpec that can ever bind on
        # this cluster (oversubscribed AND multi-rack) — every fabric
        # code path below gates on it, which is what keeps flat fabrics
        # bit-identical to no fabric at all.
        fabric = self.spec.fabric
        if fabric is not None and fabric.active_for(n):
            self._fabric = fabric
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
            self._fabric = None
            self._rack_of = None
            self._num_racks = 0
            self._rack_pop = None
            self.booked_tor = None
            self.booked_spine = 0.0

    # -- free-core index (DESIGN.md §7) -----------------------------------------

    def _move(self, arr: np.ndarray, old: np.ndarray,
              new: np.ndarray) -> None:
        """Re-bucket the nodes ``arr`` (distinct, batch order) from
        free-core counts ``old`` to ``new``.  They draw fresh stamps in
        batch order and append to their destinations, so each bucket
        receives them in the order per-node moves would; the entries
        they leave behind die in place.  Every node's count changes
        (:meth:`place_slices` rejects zero-process slices)."""
        live, head, tail = self._count, self._head, self._tail
        if len(arr) <= _NARROW:
            # A few nodes: scalar appends beat per-call array overhead.
            ids, sts, stamp = self._bids, self._bst, self._stamp
            for nid, src, dst in zip(arr.tolist(), old.tolist(),
                                     new.tolist()):
                clock = self._clock
                self._clock = clock + 1
                stamp[nid] = clock
                if head[src] < tail[src] and ids[src][head[src]] == nid:
                    head[src] += 1  # taken from the front, as first-n does
                live[src] -= 1
                live[dst] += 1
                end = tail[dst]
                if end == len(ids[dst]):
                    end = self._compact(dst, room=1)
                ids[dst][end] = nid
                sts[dst][end] = clock
                tail[dst] = end + 1
                if tail[src] - head[src] > 2 * live[src]:
                    self._compact(src)
            return
        count = len(arr)
        clock = self._clock
        self._clock = clock + count
        stamps = np.arange(clock, clock + count, dtype=np.int64)
        self._stamp[arr] = stamps
        came = np.bincount(new, minlength=len(live))
        gone = np.bincount(old, minlength=len(live))
        for f in np.flatnonzero(came).tolist():
            k = int(came[f])
            live[f] += k
            if k == count:
                self._push(f, arr, stamps)
            else:
                sel = new == f
                self._push(f, arr[sel], stamps[sel])
        first = int(arr[0])
        for f in np.flatnonzero(gone).tolist():
            k = int(gone[f])
            live[f] -= k
            h = head[f]
            front = self._bids[f][h:h + count]
            # The whole batch left f (so none entered it) from its front,
            # as first-n placements do: skip those dead entries now.
            if k == count and h + count <= tail[f] and front[0] == first \
                    and np.array_equal(front, arr):
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
                     n_nodes: int, net: float = 0.0) -> None:
        """Install one job's slices on all its nodes in one batch: node
        ``nodes[i]`` gets ``procs[i]`` processes (both int64 arrays, or
        sequences converted to them).

        Semantically one node at a time in batch order, but the capacity
        columns mutate through fancy-indexed array ops, the resident mix
        column moves through one transition per distinct (prior mix,
        process count) pair, and the free-core index through one append
        per destination bucket.  Validation runs *before* any mutation,
        so a raised :class:`AllocationError` leaves the cluster
        untouched — no caller-side rollback.
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
        if bool((procs_arr < 1).any()):
            raise AllocationError("per-node process counts must be positive")
        if len(set(arr.tolist())) != count:
            raise AllocationError("placement names a node twice")
        cols = self.columns
        old_free_arr = cols.free_cores[arr]
        partitioned = self.partitioned
        # Vectorized validation: the whole-batch numpy checks decide
        # pass/fail; only a failing batch walks the nodes again to raise
        # the first offending node's own error.
        bad = bool(np.any(procs_arr > old_free_arr))
        if partitioned:
            if ways < cols.min_ways:
                raise AllocationError(
                    f"job {job_id} requested {ways} ways; minimum is "
                    f"{cols.min_ways} (associativity floor)"
                )
            bad = bad \
                or bool(np.any(cols.parts[arr] >= cols.max_partitions)) \
                or bool(np.any(cols.free_ways[arr] < ways))
        sc = self.scols
        meta = sc.meta.get(job_id)
        if meta is not None and (
                meta[4] != bw or (partitioned and meta[3] != ways)):
            # The resident mix key names jobs, not bookings: a job books
            # the same ways and bandwidth on every node it occupies.
            raise AllocationError(
                f"job {job_id} must book the same ways and bandwidth "
                f"on every node"
            )
        # Duplicate-resident check, pruned to occupied nodes through the
        # n_res column (an idle node cannot already host this job).
        slot_pos = cols.n_res[arr]  # fancy index: an owned copy
        if bool((slot_pos > 0).any()):
            dup = (sc.job[arr] == job_id).any(axis=1)
            if bool(dup.any()):
                raise AllocationError(
                    f"job {job_id} already on node "
                    f"{int(arr[int(np.argmax(dup))])}"
                )
        if bad:
            old_free = old_free_arr.tolist()
            procs_list = procs_arr.tolist()
            free_ways = cols.free_ways[arr].tolist()
            parts = cols.parts[arr].tolist()
            for i, nid in enumerate(arr.tolist()):
                if procs_list[i] > old_free[i]:
                    raise AllocationError(
                        f"node {nid} has {old_free[i]} free cores; "
                        f"{procs_list[i]} requested"
                    )
                if partitioned:
                    if parts[i] >= cols.max_partitions:
                        raise AllocationError(
                            f"node already has {parts[i]} CAT partitions "
                            f"(max {cols.max_partitions})"
                        )
                    if ways > free_ways[i]:
                        raise AllocationError(
                            f"job {job_id} requested {ways} ways; "
                            f"only {free_ways[i]} free"
                        )
            raise AllocationError("place_slices validation out of sync")
        # -- slice columns: append at each node's dense free slot ----------
        if int(slot_pos.max()) >= sc.slots:
            sc.grow()
        sc.job[arr, slot_pos] = job_id
        sc.procs[arr, slot_pos] = procs_arr
        if partitioned:
            sc.ways[arr, slot_pos] = ways
        if bw != 0.0:
            sc.bw[arr, slot_pos] = bw
        if net != 0.0:
            sc.net[arr, slot_pos] = net
        sc.meta[job_id] = (
            program, n_nodes, count if meta is None else meta[2] + count,
            ways, bw,
        )
        # -- node columns (single fancy-indexed op per array) --------------
        cols.free_cores[arr] -= procs_arr
        cols.n_res[arr] += 1
        if partitioned:
            cols.free_ways[arr] -= ways
            cols.parts[arr] += 1
        # Booked totals grow by one elementwise IEEE addition (identical
        # to extending the scalar left-to-right sum); a 0.0 booking is a
        # bitwise no-op and skips the float work entirely.
        if bw != 0.0:
            cols.booked_bw[arr] += bw
            cols.bw_eps[arr] = (cols.peak_bw - cols.booked_bw[arr]) + 1e-9
        if net != 0.0:
            cols.booked_net[arr] += net
            cols.net_eps[arr] = (1.0 - cols.booked_net[arr]) + 1e-9
            if self._fabric is not None:
                self._book_cross(arr, slot_pos, net, count)
        # -- resident mix: one transition per distinct (mix, procs) -------
        self.counters["mix_transitions"] += self.mixes.add(
            arr, job_id, procs_arr)
        self._move(arr, old_free_arr, old_free_arr - procs_arr)

    def remove_slices(self, nodes: Sequence[int], job_id: int) -> None:
        """Remove one job's slices from all its nodes in one batch
        (semantically one node at a time in batch order, with a
        single ``release_epoch`` bump — the epoch is only ever compared
        for equality, so batching the bumps is observationally
        identical).  Booked float columns are re-summed from the
        remaining residents in insertion order (float subtraction does
        not invert addition); a node left empty resets to exact zeros.

        Every per-node update is a fancy-indexed column op (the
        free-core index included, as in :meth:`place_slices`); only
        nodes that keep residents shift their slice rows, one slice
        copy per distinct removed position.  One job books identical
        ways/bandwidth/network on every node of its placement
        (``place_slices`` takes them as scalars), so one slice decides
        the batch-wide re-sum and ways values.  ``nodes`` is an int64
        array (:attr:`Placement.nodes`) or a sequence converted to one.
        """
        arr = np.asarray(nodes, dtype=np.int64)
        count = len(arr)
        cols = self.columns
        sc = self.scols
        old_free = cols.free_cores[arr]
        partitioned = self.partitioned
        # Nodes keeping residents (before the decrement below) need
        # their booked sums rebuilt; emptied nodes reset to zeros.  When
        # NO node keeps a resident (the dominant shape: a job leaving
        # nodes it had to itself), density pins its sole slice at slot 0
        # on every node — no mask/argmax/compaction machinery at all.
        kept = cols.n_res[arr] > 1
        kept_any = bool(kept.any())
        if not kept_any:
            jcol = sc.job[arr, 0]
            bad = jcol != job_id
            if bool(bad.any()):
                # Validation precedes any mutation, so the raise leaves
                # the cluster untouched (an idle node's slot 0 holds the
                # -1 sentinel).
                raise AllocationError(
                    f"job {job_id} not on node {int(arr[int(np.argmax(bad))])}"
                )
            pos = None
            procs_arr = sc.procs[arr, 0]
            p0 = 0
        else:
            jrows = sc.job[arr]  # (count, slots+1) owned copies
            mask = jrows == job_id
            hit = mask.any(axis=1)
            if not bool(hit.all()):
                raise AllocationError(
                    f"job {job_id} not on node {int(arr[int(np.argmin(hit))])}"
                )
            pos = mask.argmax(axis=1)
            procs_arr = sc.procs[arr, pos]
            p0 = int(pos[0])
        if partitioned:
            ways = int(sc.ways[arr[0], p0])
        resum = float(sc.bw[arr[0], p0]) != 0.0 \
            or float(sc.net[arr[0], p0]) != 0.0
        # Cross bookings are uniformly zero (single-rack placement) or
        # uniformly nonzero (every node of a multi-rack placement sends
        # *some* traffic off-rack) across one job's slices, so one slice
        # decides the batch-wide handling — read before compaction
        # overwrites the slot.  has_cross implies resum (cross is a
        # share of a nonzero net booking).
        fabric_active = self._fabric is not None
        has_cross = fabric_active and float(sc.cross[arr[0], p0]) != 0.0
        self.counters["mix_transitions"] += self.mixes.drop(arr, job_id)
        cols.free_cores[arr] += procs_arr
        cols.n_res[arr] -= 1
        if partitioned:
            cols.free_ways[arr] += ways
            cols.parts[arr] -= 1
        # -- slice columns: compact the survivors left ---------------------
        # An emptied node's sole slice sits at slot 0 (density), so it
        # only needs constant fills there.  A surviving node shifts its
        # survivors left through one fancy gather per column: column
        # index ``j`` reads source ``j`` before the removed position and
        # ``j + 1`` after it, with the permanently-empty pad column
        # supplying the trailing sentinel/zero fill — dense insertion
        # order is preserved with no argsort and no per-row Python.
        if pos is None:
            sc.job[arr, 0] = -1
            sc.procs[arr, 0] = 0
            if partitioned:
                sc.ways[arr, 0] = 0
            if resum:
                sc.bw[arr, 0] = 0.0
                sc.net[arr, 0] = 0.0
                if has_cross:
                    sc.cross[arr, 0] = 0.0
        else:
            empt_rows = arr[~kept]
            sh_rows = arr[kept]
            if empt_rows.size:
                sc.job[empt_rows, 0] = -1
                sc.procs[empt_rows, 0] = 0
                if partitioned:
                    sc.ways[empt_rows, 0] = 0
                if resum:
                    sc.bw[empt_rows, 0] = 0.0
                    sc.net[empt_rows, 0] = 0.0
                    if has_cross:
                        sc.cross[empt_rows, 0] = 0.0
            if sh_rows.size:
                # Shift survivors left of each removed position via one
                # contiguous slice copy per (distinct position, column):
                # batches remove one job, whose slot index takes very few
                # distinct values across its nodes, so this beats a
                # full-width fancy gather.  The advanced-index read on
                # the right copies before the write lands, and the pad
                # column supplies the trailing sentinel/zero fill.
                width = sc.slots
                kpos = pos[kept]
                for p in np.unique(kpos).tolist():
                    rows = sh_rows[kpos == p]
                    sc.job[rows, p:width] = sc.job[rows, p + 1:width + 1]
                    sc.procs[rows, p:width] = \
                        sc.procs[rows, p + 1:width + 1]
                    if partitioned:
                        sc.ways[rows, p:width] = \
                            sc.ways[rows, p + 1:width + 1]
                    sc.bw[rows, p:width] = sc.bw[rows, p + 1:width + 1]
                    sc.net[rows, p:width] = sc.net[rows, p + 1:width + 1]
                    if fabric_active:
                        # Survivors to the right of the removed slot may
                        # carry cross bookings of *other* jobs even when
                        # the removed job itself had none, so the shift
                        # gates on fabric presence, not has_cross.
                        sc.cross[rows, p:width] = \
                            sc.cross[rows, p + 1:width + 1]
        entry = sc.meta[job_id]
        if entry[2] <= count:
            del sc.meta[job_id]
        else:
            sc.meta[job_id] = entry[:2] + (entry[2] - count,) + entry[3:]
        if resum:
            # Dropping an exact-0.0 booking preserves every partial sum
            # bitwise, so the columns only need re-summing when the
            # removed slices actually booked something.
            empt = arr if pos is None else arr[~kept]
            if empt.size:
                cols.booked_bw[empt] = 0.0
                cols.bw_eps[empt] = (cols.peak_bw - 0.0) + 1e-9
                cols.booked_net[empt] = 0.0
                cols.net_eps[empt] = (1.0 - 0.0) + 1e-9
                if has_cross:
                    cols.booked_cross[empt] = 0.0
            if kept_any and sh_rows.size:
                # Left-to-right column adds over the compacted rows are
                # bit-identical to a Python sum in insertion order: the
                # slots are dense, and adding a trailing exact-0.0 pad
                # is a bitwise no-op for the non-negative bookings.
                sh = sh_rows
                span = int(cols.n_res[sh].max())
                bw_rows = sc.bw[sh, :span]
                net_rows = sc.net[sh, :span]
                tot_bw = bw_rows[:, 0].copy()
                for k in range(1, span):
                    tot_bw += bw_rows[:, k]
                tot_net = net_rows[:, 0].copy()
                for k in range(1, span):
                    tot_net += net_rows[:, k]
                cols.booked_bw[sh] = tot_bw
                cols.bw_eps[sh] = (cols.peak_bw - cols.booked_bw[sh]) \
                    + 1e-9
                cols.booked_net[sh] = tot_net
                cols.net_eps[sh] = (1.0 - cols.booked_net[sh]) + 1e-9
                if has_cross:
                    cross_rows = sc.cross[sh, :span]
                    tot_cross = cross_rows[:, 0].copy()
                    for k in range(1, span):
                        tot_cross += cross_rows[:, k]
                    cols.booked_cross[sh] = tot_cross
            if has_cross:
                # Dropping an exact-0.0 cross booking preserves the ToR
                # partial sums bitwise, so the aggregates only need
                # re-deriving when the removed slices crossed racks.
                self._refresh_links(np.unique(self._rack_of[arr]))
        self._move(arr, old_free, old_free + procs_arr)
        self.release_epoch += 1

    # -- fabric link accounting (DESIGN.md §13) ---------------------------------

    def _book_cross(self, arr: np.ndarray, slot_pos: np.ndarray,
                    net: float, count: int) -> None:
        """Install the cross-rack share of one placement's ``net``
        booking on the slice/node cross columns and re-derive the link
        aggregates.  Called only with an active fabric and ``net != 0``.

        A job spread over ``count`` nodes keeps traffic to rack-mates
        in-rack: a node sharing its rack with ``same`` of the job's
        nodes sends the fraction ``(count - same) / (count - 1)`` of its
        booking through the ToR uplink (uniform all-to-all peers, one
        fixed operation order so the invariant replay can reproduce the
        value exactly).  A single-rack placement books no cross traffic
        at all — compact placements are free on the fabric, which is
        exactly the asymmetry the locality-aware spreading exploits.
        """
        if count <= 1:
            return
        racks = self._rack_of[arr]
        uniq, inv, cnt = np.unique(racks, return_inverse=True,
                                   return_counts=True)
        if uniq.size == 1:
            return
        cross = net * (count - cnt[inv]) / (count - 1)
        sc = self.scols
        cols = self.columns
        sc.cross[arr, slot_pos] = cross
        # Same discipline as booked_net: one elementwise IEEE addition
        # extends the per-node left-to-right sum exactly.
        cols.booked_cross[arr] += cross
        self._refresh_links(uniq)

    def _refresh_links(self, racks: np.ndarray) -> None:
        """Re-derive ``booked_tor`` for the given racks and
        ``booked_spine``, as canonical left-to-right sums over
        ``booked_cross`` in node-id order (rack order for the spine) —
        the exact-float contract :meth:`verify_columns` checks.  Racks
        whose members' cross bookings did not change keep their stored
        sums (those are unchanged by construction)."""
        cols = self.columns
        tor = self.booked_tor
        rack_size = self._fabric.rack_size
        n = len(self.nodes)
        booked = cols.booked_cross
        for r in racks.tolist():
            lo = r * rack_size
            tor[r] = sum(booked[lo:min(lo + rack_size, n)].tolist())
        # 0.0 + x is a bitwise no-op for the non-negative per-rack sums,
        # so Python's sum() IS the left-to-right rack-order total.
        self.booked_spine = sum(tor.tolist())

    # -- availability (fault injection, DESIGN.md §8) ---------------------------

    def fail_node(self, node_id: int) -> None:
        """Take a node down.  The caller (the runtime's ``NODE_FAIL``
        handler) must have evicted every resident slice first; the node
        is then pulled out of the free-core index so no placement path
        can see it until :meth:`recover_node`."""
        if node_id in self._down:
            raise SimulationError(f"node {node_id} is already down")
        node = self.nodes[node_id]
        if int(self.columns.n_res[node_id]):
            raise SimulationError(
                f"cannot fail node {node_id} with resident slices"
            )
        # Its entry dies with its stamp; the next move compacts the
        # bucket if dead entries come to outnumber live ones.
        self._stamp[node_id] = -1
        self._count[node.free_cores] -= 1
        self._down[node_id] = None

    def recover_node(self, node_id: int) -> None:
        """Bring a failed node back, empty.  Recovery adds capacity the
        way a slice removal does, so it bumps ``release_epoch`` (the
        find_nodes negative cache must forget failures recorded against
        the smaller cluster)."""
        if node_id not in self._down:
            raise SimulationError(f"node {node_id} is not down")
        del self._down[node_id]
        free = self.nodes[node_id].free_cores
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

    def node(self, node_id: int) -> NodeState:
        return self.nodes[node_id]

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

    def _host_mask(self, sub, cores: Optional[int], ways: int, bw: float,
                   net: float, idle_skips_tor: bool = False
                   ) -> Optional[np.ndarray]:
        """Per-node ``can_host`` mask over the slots ``sub`` (an id
        array, or ``slice(None)`` for all), for ways the caller has
        range-checked.  ``cores=None`` skips the core test; bandwidth
        and network are tested only for a positive demand (the epsilon
        columns are strictly positive); ``None`` means nothing was
        tested.  Under an active fabric a network demand also needs its
        rack's ToR headroom in the worst case (all of it crossing the
        spine) — a conservative feasibility mask.  ``idle_skips_tor``
        exempts fully idle nodes, which find_nodes admits through
        :attr:`idle_probe`'s ``can_host`` (DESIGN.md §11)."""
        cols = self.columns
        ok = None if cores is None else cols.free_cores[sub] >= cores
        if bw > 0.0:
            m = cols.bw_eps[sub] >= bw
            ok = m if ok is None else ok & m
        if self.partitioned:
            m = cols.free_ways[sub] >= ways
            ok = m if ok is None else ok & m
            ok &= cols.parts[sub] < cols.max_partitions
        if net > 0.0:
            m = cols.net_eps[sub] >= net
            ok = m if ok is None else ok & m
            if self._fabric is not None:
                cap = self._rack_pop / self._fabric.oversubscription
                tor = (self.booked_tor + net <= cap + 1e-9)[
                    self._rack_of[sub]]
                if idle_skips_tor:
                    tor |= cols.free_cores[sub] == cols.cores
                ok &= tor
        return ok

    def _ways_unplaceable(self, ways: int) -> bool:
        """Whether ``can_allocate`` rejects ``ways`` on every node."""
        cols = self.columns
        return self.partitioned and (
            ways < cols.min_ways or ways > cols.llc_ways)

    def count_hosts(self, cores: int, ways: int, bw: float,
                    net: float) -> int:
        """Number of up nodes that could host the slice, in one pass
        over the node columns: exactly the nodes find_nodes' bucket
        walk qualifies with no scan cap (:meth:`scan_hosts` on
        part-used nodes, no ToR test on idle ones; DESIGN.md §7)."""
        if self._ways_unplaceable(ways):
            return 0
        ok = self._host_mask(slice(None), cores, ways, bw, net,
                             idle_skips_tor=True)
        if self._down:
            ok[list(self._down)] = False
        return int(np.count_nonzero(ok))

    def scan_hosts(self, ids: Iterable[int], cores: int, ways: int,
                   bw: float, net: float, limit: int,
                   bucket: int = None) -> np.ndarray:
        """First ``limit`` node ids (scanned in the given order) that
        satisfy :meth:`NodeState.can_host` with these demands, plus the
        ToR headroom test under an active fabric (:meth:`_host_mask`).

        Vectorized over the capacity columns (the authoritative node
        state).  A caller scanning a whole free-core bucket passes its
        key, which makes the core comparison a foregone conclusion.
        find_nodes scans only once its :meth:`count_hosts` precheck
        says the bucket walk will succeed.
        """
        arr = _id_array(ids)
        if arr.size == 0 or self._ways_unplaceable(ways):
            return arr[:0].copy()
        check_cores = not (bucket is not None and bucket >= cores)
        if not (check_cores or bw > 0.0 or self.partitioned or net > 0.0):
            hits = arr[:limit].copy()
            self.counters["nodes_scanned"] += int(hits.size)
            return hits
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
            ok = self._host_mask(sub, cores if check_cores else None,
                                 ways, bw, net)
            out.append(sub[ok])
            found += len(out[-1])
        hits = out[0] if len(out) == 1 else np.concatenate(out)
        return hits[:limit]

    def pick_idlest(self, ids: Sequence[int], n: int, beta: float,
                    rack_aware: bool = False) -> np.ndarray:
        """The ``n`` ids with the lowest occupancy metric (ties broken by
        node id), metric-ascending — matches ``heapq.nsmallest`` over
        :meth:`NodeState.occupancy_metric` bit-for-bit: the metric is
        evaluated with elementwise numpy arithmetic in the same operation
        order as the scalar expression, and the used-core / allocated-way
        operands are exact integer complements of the columnar free
        counts.

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
        cols = self.columns
        arr = _id_array(ids)
        co = (cols.cores - cols.free_cores[arr]) / cols.cores
        bo = np.minimum(1.0, cols.booked_bw[arr] / cols.peak_bw)
        if self.partitioned:
            wo = (cols.llc_ways - cols.free_ways[arr]) / cols.llc_ways
            metric = co + bo + beta * wo
        else:
            # Unpartitioned ledgers never allocate ways: Wo is 0.0 and
            # adding beta * 0.0 is a bitwise no-op on the scalar path.
            metric = co + bo
        if rack_aware and self._fabric is not None:
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
        node: its mix's view, resolved once per mix lifetime.

        With the perf-model caches disabled (debugging / equivalence
        runs) every call recomputes from scratch on the reference path.
        """
        return self.arbitration_batch((node_id,))[node_id]

    def arbitration_batch(
        self, node_ids: Iterable[int]
    ) -> Dict[int, ArbitrationView]:
        """Arbitration views for many nodes at once.

        Nodes sharing a resident mix share its view, so the work is one
        resolution per distinct *unresolved* mix: a hit in the
        signature-keyed view cache, or a place in one call to the
        columnar batched kernel (:func:`repro.perfmodel.batch.
        arbitrate_nodes`) that also dedupes equal signatures.
        Bit-identical to the reference :meth:`_arbitrate` per node.
        """
        if not self.ctx.enabled:
            return {nid: self._arbitrate(nid) for nid in node_ids}
        node_list = (node_ids if isinstance(node_ids, (list, tuple))
                     else list(node_ids))
        count = len(node_list)
        mids = self.mixes.mix[
            np.fromiter(node_list, dtype=np.int64, count=count)
        ].tolist()
        views = self.mixes.views
        todo: Dict[int, int] = {}
        for nid, m in zip(node_list, mids):
            if views[m] is None and m not in todo:
                todo[m] = nid
        if todo:
            self._resolve_mixes(todo)
        return dict(zip(node_list, map(views.__getitem__, mids)))

    def _resolve_mixes(self, todo: Dict[int, int]) -> None:
        """Fill the views of the mixes in ``todo`` (mix id -> one node
        carrying it).  Each mix's job-id-independent signature is
        re-interned from its key and the per-job ``meta`` bookings; the
        node is only read when the signature needs a kernel solve."""
        mixes = self.mixes
        view_cache = self._view_cache
        meta = self.scols.meta
        partitioned = self.partitioned
        enforce_bw = self.enforce_bw
        solve: Dict[tuple, list] = {}
        hits = 0
        for m, nid in todo.items():
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
                mixes.views[m] = (jids, entry[1], entry[2], entry[3])
            elif key in solve:
                solve[key].append((m, jids))
            else:
                solve[key] = [nid, (m, jids)]
        counters = self.counters
        counters["view_cache_hits"] += hits
        if not solve:
            return
        nodes = self.nodes
        tables = [nodes[waiting[0]].slices() for waiting in solve.values()]
        solved = batch.arbitrate_nodes(self.ctx, self.spec.node, tables)
        counters["arb_nodes_solved"] += len(tables)
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
                mixes.views[m] = (jids, entry[1], entry[2], entry[3])

    def _arbitrate(self, node_id: int) -> ArbitrationView:
        """Reference arbitration of one node, from scratch."""
        node = self.nodes[node_id]
        if node.is_idle:
            return (), (), 0.0, ()
        slices = node.slices()
        grants = arbitrate_node(node.spec, slices)
        return (
            tuple(s.job_id for s in slices),
            tuple(grants[s.job_id] for s in slices),
            node_network_load(node.spec, slices),
            tuple(s.effective_ways for s in slices),
        )

    def verify_index(self) -> None:
        """Invariant check of the free-core index, used by tests and
        defensive assertions: every bucket's live span lies within its
        arrays, stamps strictly increase along every bucket, every live entry sits in its node's free-core bucket,
        every up node has exactly one live entry and no down node has
        one, and the live counts equal a bincount of free cores over
        the up nodes."""
        free_cores = self.columns.free_cores
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
        up = np.ones(len(self.nodes), dtype=np.int64)
        up[list(self._down)] = 0
        if not np.array_equal(np.bincount(np.concatenate(members),
                                          minlength=len(up)), up):
            raise SimulationError(
                "free-core index must hold each up node once, no down node")
        expect = np.bincount(free_cores[up == 1], minlength=len(self._count))
        if self._count != expect.tolist():
            raise SimulationError(
                f"free-core counts {self._count} != {expect.tolist()}")

    def verify_columns(self) -> None:
        """Check every node-column slot against values recomputed from
        the slice columns — *exact* equality, including the float
        bookings (the columns are contractually bit-identical to a
        left-to-right re-sum in slice insertion order).  Also enforces
        the slice-plane structural contract: occupied slots are dense
        in insertion order, empty slots hold the ``-1`` sentinel and
        exact zeros, the per-job meta refcounts match the installed
        slice counts, and the mix table (each node's mix decodes to its
        ``(job, procs)`` row; refcounts equal node counts; freed ids are
        unreachable).  Test / defensive-assertion hook, like
        :meth:`verify_index`."""
        cols = self.columns
        sc = self.scols
        spec = self.spec.node
        mixes = self.mixes
        refcounts: Dict[int, int] = {}
        for node in self.nodes:
            nid = node.node_id
            jrow = sc.job[nid].tolist()
            occupied = [k for k, j in enumerate(jrow) if j >= 0]
            m = len(occupied)
            if occupied != list(range(m)):
                raise SimulationError(
                    f"node {nid}: slice slots not dense: {jrow}"
                )
            row = tuple(zip(jrow[:m], sc.procs[nid, :m].tolist()))
            if mixes.keys[int(mixes.mix[nid])] != row:
                raise SimulationError(
                    f"node {nid}: mix {int(mixes.mix[nid])} decodes to "
                    f"{mixes.keys[int(mixes.mix[nid])]}, slices hold {row}"
                )
            for k, jid in enumerate(jrow[:m]):
                meta = sc.meta.get(jid)
                if meta is None:
                    raise SimulationError(
                        f"node {nid}: job {jid} has no meta entry"
                    )
                # Mix views read the per-job bookings from meta.
                if float(sc.bw[nid, k]) != meta[4] or (
                        self.partitioned and int(sc.ways[nid, k]) != meta[3]):
                    raise SimulationError(
                        f"node {nid}: job {jid} booking differs from meta"
                    )
                refcounts[jid] = refcounts.get(jid, 0) + 1
            if len(set(jrow[:m])) != m:
                raise SimulationError(
                    f"node {nid}: duplicate resident job: {jrow[:m]}"
                )
            for name, fill in (("procs", 0), ("ways", 0),
                               ("bw", 0.0), ("net", 0.0), ("cross", 0.0)):
                tail = getattr(sc, name)[nid, m:]
                if bool((tail != fill).any()):
                    raise SimulationError(
                        f"node {nid}: {name} column has non-zero "
                        f"empty slots"
                    )
            if int(cols.n_res[nid]) != m:
                raise SimulationError(
                    f"node {nid}: n_res column {int(cols.n_res[nid])} "
                    f"!= {m}"
                )
            used = sum(sc.procs[nid, :m].tolist())
            if int(cols.free_cores[nid]) != spec.cores - used:
                raise SimulationError(
                    f"node {nid}: free_cores column "
                    f"{int(cols.free_cores[nid])} != {spec.cores - used}"
                )
            allocated = sum(sc.ways[nid, :m].tolist())
            if int(cols.free_ways[nid]) != spec.llc_ways - allocated:
                raise SimulationError(
                    f"node {nid}: free_ways column "
                    f"{int(cols.free_ways[nid])} != "
                    f"{spec.llc_ways - allocated}"
                )
            parts = m if self.partitioned else 0
            if int(cols.parts[nid]) != parts:
                raise SimulationError(
                    f"node {nid}: parts column {int(cols.parts[nid])} "
                    f"!= {parts}"
                )
            booked_bw = sum(sc.bw[nid, :m].tolist())
            booked_net = sum(sc.net[nid, :m].tolist())
            if float(cols.booked_bw[nid]) != booked_bw:
                raise SimulationError(
                    f"node {nid}: booked_bw column "
                    f"{float(cols.booked_bw[nid])!r} != {booked_bw!r}"
                )
            if float(cols.booked_net[nid]) != booked_net:
                raise SimulationError(
                    f"node {nid}: booked_net column "
                    f"{float(cols.booked_net[nid])!r} != {booked_net!r}"
                )
            if float(cols.bw_eps[nid]) != (spec.peak_bw - booked_bw) + 1e-9:
                raise SimulationError(
                    f"node {nid}: bw_eps column out of sync"
                )
            if float(cols.net_eps[nid]) != (1.0 - booked_net) + 1e-9:
                raise SimulationError(
                    f"node {nid}: net_eps column out of sync"
                )
            booked_cross = sum(sc.cross[nid, :m].tolist())
            if float(cols.booked_cross[nid]) != booked_cross:
                raise SimulationError(
                    f"node {nid}: booked_cross column "
                    f"{float(cols.booked_cross[nid])!r} != {booked_cross!r}"
                )
        if self._fabric is not None:
            num_nodes = len(self.nodes)
            for r in range(self._num_racks):
                lo, hi = self._fabric.rack_span(r, num_nodes)
                expect = sum(cols.booked_cross[lo:hi].tolist())
                if float(self.booked_tor[r]) != expect:
                    raise SimulationError(
                        f"rack {r}: booked_tor "
                        f"{float(self.booked_tor[r])!r} != {expect!r}"
                    )
            expect = sum(self.booked_tor.tolist())
            if self.booked_spine != expect:
                raise SimulationError(
                    f"booked_spine {self.booked_spine!r} != {expect!r}"
                )
        for jid, n_slices in refcounts.items():
            if sc.meta[jid][2] != n_slices:
                raise SimulationError(
                    f"job {jid}: meta refcount {sc.meta[jid][2]} != "
                    f"{n_slices} installed slices"
                )
        for jid in sc.meta:
            if jid not in refcounts:
                raise SimulationError(
                    f"job {jid}: meta entry with no installed slices"
                )
        nodes = np.bincount(mixes.mix, minlength=len(mixes.keys)).tolist()
        free = set(mixes.free)
        for m, key in enumerate(mixes.keys):
            live = key is not None and mixes.ids.get(key) == m
            if live == (m in free) or (not live and (
                    nodes[m] or mixes.refs[m] or mixes.views[m] is not None)):
                raise SimulationError(f"mix {m}: freed id still reachable")
            if live and (mixes.refs[m] != nodes[m] or (m and not nodes[m])):
                raise SimulationError(
                    f"mix {m}: refcount {mixes.refs[m]} != {nodes[m]} nodes"
                )
        if len(mixes.ids) + len(mixes.free) != len(mixes.keys):
            raise SimulationError("mix table index out of sync")

    def gauge_columns(self) -> np.ndarray:
        """Live per-node gauge matrix: rows are
        :data:`repro.obs.timeseries.CHANNELS` (free cores, booked GB/s,
        allocated dedicated ways, resident job count), columns are
        nodes.  Down nodes read zero on every channel.  This is the
        ground truth the trace-replayed series
        (:func:`repro.obs.timeseries.timeseries_from_trace`) is
        cross-validated against.

        Unpartitioned ledgers never allocate ways, so the alloc_ways row
        is identically zero for CE/CS — matching the way-capacity law in
        :mod:`repro.obs.invariants`.
        """
        cols = self.columns
        n = len(self.nodes)
        gauges = np.empty((4, n), dtype=np.float64)
        gauges[0] = cols.free_cores
        gauges[1] = cols.booked_bw
        if self.partitioned:
            gauges[2] = cols.llc_ways - cols.free_ways
        else:
            gauges[2] = 0.0
        gauges[3] = cols.n_res
        for nid in self._down:
            gauges[:, nid] = 0.0
        return gauges

    def resident_jobs_on(self, node_ids: Iterable[int]) -> Set[int]:
        """Union of job ids resident on the given nodes (one gather over
        the slice-id columns; empty slots hold ``-1``)."""
        arr = _id_array(node_ids)
        if not arr.size:
            return set()
        rows = self.scols.job[arr]
        return set(rows[rows >= 0].tolist())

    def shared_resident_jobs(self, node_ids: Sequence[int]) -> Set[int]:
        """Job ids resident on those of the given nodes that host **more
        than one** resident.  The resident-count column prunes the scan,
        so a fully exclusive placement gathers zero slice rows.

        This is the co-runner discovery set of the runtime's start,
        finish and evict paths: a node with a single resident has nobody
        whose speed the triggering job's own event could change (the
        sole resident *is* the triggering job on every call site).
        """
        arr = _id_array(node_ids)
        multi = arr[self.columns.n_res[arr] > 1]
        if not multi.size:
            return set()
        rows = self.scols.job[multi]
        return set(rows[rows >= 0].tolist())
