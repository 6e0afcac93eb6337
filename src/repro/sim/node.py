"""Runtime state of one compute node.

Tracks free cores, CAT way allocations, booked bandwidth, and the set of
resident job slices.  A node can run in *partitioned* mode (SNS: each job
has dedicated ways; residual ways shared equally) or *unpartitioned* mode
(CE/CS: no CAT actuation — the LLC is a free-for-all and capacity divides
in proportion to each job's process count, which models the steady state
of an unmanaged shared cache under equal per-core pressure).

The *hot* per-node quantities — free cores, free ways, partition count,
booked bandwidth/network and the scan-ready epsilon complements — live in
:class:`NodeColumns`, a struct-of-arrays pool shared by every node of a
cluster.  Per-slice state — resident job id, process count, dedicated
ways, booked bandwidth/network per slice — lives in :class:`SliceColumns`,
a second struct-of-arrays pool kept in lockstep with the node columns
(DESIGN.md §7).  The columns are the **source of truth**: a
:class:`NodeState` is a thin view over its column slot with *no* per-slice
Python objects of its own, and the cluster's vectorized paths
(``scan_hosts``, ``pick_idlest``, batched place/remove, arbitration view
assembly) read and write the contiguous arrays directly.

Float discipline (bit-identity with re-summed bookkeeping, enforced by
``tests/test_soa_columns.py``): booked bandwidth/network columns are
*added to* on placement — extending a left-to-right Python ``sum()`` by
one term is the same single IEEE addition — and *re-summed over the
remaining residents in insertion order* on removal, because float
subtraction does not invert addition.  Slice slots are kept dense in
insertion order, so slot order *is* insertion order and the re-sum can
run as left-to-right column adds (trailing empty slots hold exact ``0.0``
and ``x + 0.0`` is a bitwise no-op for the non-negative bookings).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.apps.program import ProgramSpec
from repro.errors import AllocationError
from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.contention import Slice


class NodeColumns:
    """Struct-of-arrays hot state for a pool of nodes.

    One slot per node; every array is the authoritative value (no
    mirror to flush).  The float columns keep both the booked totals and
    the *epsilon complements* — free capacity plus ``can_host``'s 1e-9
    comparison slack — so capacity scans compare raw demands against a
    contiguous array without a per-scan vector add.  Spec-derived
    constants are denormalized here so batched mutation paths never walk
    property chains.
    """

    __slots__ = (
        "spec", "cores", "llc_ways", "peak_bw", "min_ways",
        "max_partitions", "free_cores", "free_ways", "parts", "n_res",
        "booked_bw", "booked_net", "booked_cross", "bw_eps", "net_eps",
    )

    def __init__(self, n: int, spec: NodeSpec) -> None:
        self.spec = spec
        self.cores = spec.cores
        self.llc_ways = spec.llc_ways
        self.peak_bw = spec.peak_bw
        self.min_ways = spec.cache.min_ways
        self.max_partitions = spec.cache.max_partitions
        self.free_cores = np.full(n, spec.cores, dtype=np.int64)
        self.free_ways = np.full(n, spec.llc_ways, dtype=np.int64)
        self.parts = np.zeros(n, dtype=np.int64)
        self.n_res = np.zeros(n, dtype=np.int64)
        self.booked_bw = np.zeros(n, dtype=np.float64)
        self.booked_net = np.zeros(n, dtype=np.float64)
        # Booked *cross-rack* link fraction per node (the part of
        # ``booked_net`` that leaves the rack through the ToR uplink);
        # mutated only when the cluster's fabric is active, with the same
        # float discipline as booked_net.  The per-rack ToR and spine
        # aggregates are derived from this column (ClusterState).
        self.booked_cross = np.zeros(n, dtype=np.float64)
        self.bw_eps = np.full(n, spec.peak_bw + 1e-9, dtype=np.float64)
        self.net_eps = np.full(n, 1.0 + 1e-9, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.free_cores)


#: Resident slots a slice plane starts with.  Nodes rarely host more
#: than a few jobs at once (at most 4 on the Trinity-like SNS replays,
#: 1 under CE), so the plane starts narrow and :meth:`SliceColumns.grow`
#: widens it the first time some node needs another slot.
INITIAL_SLOTS = 2


class SliceColumns:
    """Struct-of-arrays per-slice state for a pool of nodes.

    Row = node slot, column = resident slot.  Resident slots are kept
    **dense in insertion order**: a placement appends at slot
    ``n_res``, a removal compacts the survivors left — so slot order is
    resident insertion order, which is the order every order-sensitive
    consumer (resident mixes, booked-float re-sums) observes.

    The plane is sized by occupancy, not by core count: it starts with
    :data:`INITIAL_SLOTS` resident slots and doubles whenever a
    placement lands on a node whose slots are all taken, so every
    whole-row gather (duplicate check, removal shift, re-sum) reads as
    many columns as the busiest node has ever needed.

    Empty slots hold the sentinel ``-1`` in ``job`` and exact zeros in
    every other column, which makes left-to-right column adds over a
    whole slot span bit-identical to summing only the occupied slots.

    Per-*job* (not per-slice) attributes live in ``meta``: ``job_id ->
    (program, n_nodes, slice_refcount, ways, bw)`` — the program
    reference and placement width cannot be columnized, and the
    per-node ways/bandwidth booking (identical on every node of a
    placement) lets a resident mix be resolved without reading a row.
    The refcount tracks how many slices of the job are installed
    anywhere in the pool, so partial placements and removals keep it
    exact.
    """

    __slots__ = ("slots", "job", "procs", "ways", "bw", "net", "cross",
                 "meta")

    def __init__(self, n: int, slots: int) -> None:
        # One extra physical column beyond the logical slot count: a
        # permanently-empty pad the batched removal's shift-gather reads
        # (index ``slots``) so survivors compact left in one fancy
        # gather with no bounds special-casing.
        self.slots = slots
        self.job = np.full((n, slots + 1), -1, dtype=np.int64)
        self.procs = np.zeros((n, slots + 1), dtype=np.int64)
        self.ways = np.zeros((n, slots + 1), dtype=np.int64)
        self.bw = np.zeros((n, slots + 1), dtype=np.float64)
        self.net = np.zeros((n, slots + 1), dtype=np.float64)
        # Cross-rack share of ``net`` per slice (zero unless the
        # cluster's fabric is active and the slice's job spans racks).
        self.cross = np.zeros((n, slots + 1), dtype=np.float64)
        self.meta: Dict[int, Tuple[ProgramSpec, int, int, int, float]] = {}

    def grow(self) -> None:
        """Double the resident-slot capacity.  ``place_slices`` calls it
        when some node of a batch already fills every slot; one doubling
        always suffices, because a batch adds one slice per node.  The
        arrays are replaced on this object, so every holder of the
        :class:`SliceColumns` (the cluster, its node views) sees the
        wider plane.  A node hosts at most ``cores`` slices (each slice
        pins at least one process), which bounds the growth."""
        n = self.job.shape[0]
        new = self.slots * 2
        for name, fill in (("job", -1), ("procs", 0), ("ways", 0),
                           ("bw", 0.0), ("net", 0.0), ("cross", 0.0)):
            old = getattr(self, name)
            wide = np.full((n, new + 1), fill, dtype=old.dtype)
            wide[:, :old.shape[1]] = old
            setattr(self, name, wide)
        self.slots = new


#: Inputs up to this length group as Python lists (numpy's per-call
#: overhead dominates below it).
_SHORT = 32


def distinct(values, bound: int = 0) -> tuple:
    """``(distinct values, counts, a position of each, inverse)`` of a
    non-empty 1-D int array or list — ``np.unique``'s answer without its
    fixed cost on the shapes hot paths see: short inputs (plain lists
    throughout, values in first-occurrence order) and one repeated value
    (inverse ``None``).  Long inputs must be arrays; with ``bound`` (all
    values below it) they group by counting instead of sorting."""
    n = len(values)
    if n <= _SHORT:
        lst = values if isinstance(values, list) else values.tolist()
        if lst.count(lst[0]) == n:
            return lst[:1], [n], [0], None
        pos: Dict[int, int] = {}
        inv = [pos.setdefault(v, len(pos)) for v in lst]
        return (list(pos), [inv.count(i) for i in range(len(pos))],
                [inv.index(i) for i in range(len(pos))], inv)
    v0 = int(values[0])
    if bool((values == v0).all()):
        return [v0], [n], [0], None
    if not bound:
        uniq, first, inv, cnt = np.unique(values, return_index=True,
                                          return_inverse=True,
                                          return_counts=True)
        return uniq.tolist(), cnt.tolist(), first.tolist(), inv
    cnt = np.bincount(values, minlength=bound)
    uniq = np.flatnonzero(cnt)
    # Which occurrence a repeated index keeps is unspecified; callers
    # only need some position of each value.
    where = np.empty(bound, dtype=np.int64)
    where[values] = np.arange(n)
    lut = np.empty(bound, dtype=np.int64)
    lut[uniq] = np.arange(uniq.size)
    return uniq.tolist(), cnt[uniq].tolist(), where[uniq].tolist(), \
        lut[values]


class MixTable:
    """Interned resident mixes of a pool of nodes.

    ``mix[slot]`` is an id into ``keys``, where a key is the node's
    ordered resident ``(job_id, procs)`` tuple (dense slot order, so
    insertion order).  That tuple fully determines the node's
    arbitration inputs: a job books the same program, width, ways and
    bandwidth on every node it occupies, and the residual ways / used
    cores follow from the residents.  Every node carrying one mix
    therefore shares one arbitration view (``views``, resolved lazily by
    :meth:`repro.sim.cluster.ClusterState.arbitration_batch`), and a
    wide placement or removal computes one transition per distinct mix
    instead of one per node.

    Id 0 is the permanent empty mix.  Other entries are refcounted by
    node count and freed at zero, their ids recycled, so the table never
    outgrows the live mix population.

    Two per-mix stores serve the running-job table's row rebuild
    (DESIGN.md §7), so it reads mixes and never nodes:

    - ``held[job_id]`` maps each mix id holding the job to its node
      count — the job's placement reduced to its distinct mixes, kept
      by the transitions of :meth:`add` / :meth:`drop`;
    - ``rates[m]`` is a list parallel to ``keys[m]``: each resident's
      per-process instruction rate under the mix's view, filled lazily
      by the rebuild.  A key fixes its residents and their procs, and a
      view never changes while its mix lives, so a rate is valid until
      the id is freed; the list is reset whenever an id is interned or
      freed (``None`` on a freed id).
    """

    __slots__ = ("mix", "stride", "keys", "ids", "refs", "views", "rates",
                 "held", "free")

    def __init__(self, n: int, cores: int) -> None:
        self.mix = np.zeros(n, dtype=np.int32)
        # (mix, procs) pairs encode as ``mix * stride + procs``; a slice
        # never holds more than ``cores`` processes.
        self.stride = cores + 1
        self.keys: List[Optional[tuple]] = [()]
        self.ids: Dict[tuple, int] = {(): 0}
        self.refs: List[int] = [n]
        self.views: List[Optional[tuple]] = [((), (), 0.0, ())]
        self.rates: List[Optional[list]] = [[]]
        self.held: Dict[int, Dict[int, int]] = {}
        self.free: List[int] = []

    def intern(self, key: tuple, count: int) -> int:
        """Id of ``key`` with its refcount raised by ``count``."""
        m = self.ids.get(key)
        if m is not None:
            self.refs[m] += count
            return m
        if self.free:
            m = self.free.pop()
            self.keys[m] = key
            self.refs[m] = count
            self.rates[m] = [None] * len(key)
        else:
            m = len(self.keys)
            self.keys.append(key)
            self.refs.append(count)
            self.views.append(None)
            self.rates.append([None] * len(key))
        self.ids[key] = m
        return m

    def release(self, m: int, count: int) -> None:
        left = self.refs[m] - count
        self.refs[m] = left
        if not left and m:
            del self.ids[self.keys[m]]
            self.keys[m] = None
            self.views[m] = None
            self.rates[m] = None
            self.free.append(m)

    def _move(self, arr: np.ndarray, olds: List[int], counts: List[int],
              news: List[tuple], inv, job_id: int, adding: bool) -> int:
        # Intern before releasing, so no refcount dips to zero while a
        # node of the batch still holds the id.
        ids = [self.intern(k, c) for k, c in zip(news, counts)]
        for m, c in zip(olds, counts):
            self.release(m, c)
        # Each transition moves ``c`` nodes of every resident of the new
        # key from the old id to the new one; the moving job only gains
        # (add) or loses (drop).  Two old mixes of a drop may collapse
        # into one new id, which then gains from both.
        held = self.held
        mover = held.setdefault(job_id, {})
        for old, new, key, c in zip(olds, ids, news, counts):
            for j, _ in key:
                h = held[j]
                if j != job_id:
                    _take(h, old, c)
                h[new] = h.get(new, 0) + c
            if not adding:
                _take(mover, old, c)
        if not mover:
            del held[job_id]
        if inv is None:
            self.mix[arr] = ids[0]
        elif isinstance(inv, list):
            self.mix[arr] = [ids[i] for i in inv]
        else:
            self.mix[arr] = np.array(ids, dtype=np.int32)[inv]
        return len(ids)

    def add(self, arr: np.ndarray, job_id: int,
            procs: np.ndarray) -> Tuple[int, Set[int]]:
        """Append ``job_id`` with ``procs[i]`` processes to the mix of
        node ``arr[i]``.  Returns the number of distinct transitions and
        the job's co-runners: the jobs of the non-empty prior mixes,
        which are exactly the residents of the nodes it now shares."""
        stride = self.stride
        if len(arr) <= _SHORT:
            codes = [m * stride + p for m, p in
                     zip(self.mix[arr].tolist(), procs.tolist())]
        else:
            codes = self.mix[arr].astype(np.int64) * stride + procs
        codes, counts, _, inv = distinct(codes)
        keys = self.keys
        olds, news = [], []
        corunners: Set[int] = set()
        for c in codes:
            m, p = divmod(c, stride)
            olds.append(m)
            key = keys[m]
            news.append(key + ((job_id, p),))
            if key:
                corunners.update([j for j, _ in key])
        return self._move(arr, olds, counts, news, inv, job_id,
                          True), corunners

    def drop(self, arr: np.ndarray,
             job_id: int) -> Tuple[int, Set[int]]:
        """Remove ``job_id`` from the mix of every node in ``arr``.
        Returns the number of distinct transitions and the job's
        co-runners: the jobs of the prior mixes it shared, minus itself
        (so the jobs of the non-empty new mixes)."""
        olds, counts, _, inv = distinct(self.mix[arr], len(self.keys))
        keys = self.keys
        news = []
        shared = []
        for k, m in enumerate(olds):
            key = keys[m]
            if len(key) > 1:
                shared.append(k)
            i = [item[0] for item in key].index(job_id)
            news.append(key[:i] + key[i + 1:])
        corunners: Set[int] = set()
        if shared:
            if len(shared) > 1 and not isinstance(inv, list):
                # Long inputs list their mixes by id; visit the shared
                # ones in node order instead (see below).
                first = np.unique(inv, return_index=True)[1]
                shared.sort(key=first.item)
            # The set is filled with the shared nodes' residents in node
            # order, the moving job included and then discarded: the
            # insertion sequence of a row-by-row column scan.  A set of
            # ints iterates in an order that depends on that sequence,
            # and the runtime's finish pushes follow it (DESIGN.md §7).
            seq: List[int] = []
            for k in shared:
                seq.extend([j for j, _ in keys[olds[k]]])
            corunners = set(seq)
            corunners.discard(job_id)
        return self._move(arr, olds, counts, news, inv, job_id,
                          False), corunners


def _take(counts: Dict[int, int], m: int, c: int) -> None:
    """Lower ``counts[m]`` by ``c``, deleting the entry at zero."""
    left = counts[m] - c
    if left:
        counts[m] = left
    else:
        del counts[m]


class NodeState:
    """Mutable per-node bookkeeping: a view over one column slot.

    ``enforce_bw`` models Intel-MBA-style hard bandwidth partitioning:
    a resident job's DRAM draw is clipped to its booking.  The paper's
    testbed lacked MBA (Section 4.4), so the default is estimation-only.
    ``share_residual`` controls the residual-way giveaway of Section 4.4;
    disabling it is an ablation knob.

    A cluster-owned node shares its :class:`ClusterState`'s column pools
    (``slot`` = node id), and slices reach it only through the
    cluster's ``place_slices`` / ``remove_slices``; a standalone node
    (a pristine probe, unit tests) builds private single-slot pools.
    """

    __slots__ = (
        "node_id", "spec", "partitioned", "enforce_bw", "share_residual",
        "columns", "scols", "_slot",
    )

    def __init__(self, node_id: int, spec: NodeSpec,
                 partitioned: bool = True, enforce_bw: bool = False,
                 share_residual: bool = True,
                 columns: Optional[NodeColumns] = None,
                 scols: Optional[SliceColumns] = None,
                 slot: Optional[int] = None) -> None:
        self.node_id = node_id
        self.spec = spec
        self.partitioned = partitioned
        self.enforce_bw = enforce_bw
        self.share_residual = share_residual
        if columns is None:
            columns = NodeColumns(1, spec)
            slot = 0
        if scols is None:
            scols = SliceColumns(len(columns), INITIAL_SLOTS)
        self.columns = columns
        self.scols = scols
        self._slot = node_id if slot is None else slot

    # -- capacity queries ----------------------------------------------------

    @property
    def used_cores(self) -> int:
        return self.spec.cores - int(self.columns.free_cores[self._slot])

    @property
    def free_cores(self) -> int:
        return int(self.columns.free_cores[self._slot])

    @property
    def free_ways(self) -> int:
        return int(self.columns.free_ways[self._slot])

    @property
    def cat_partitions(self) -> int:
        """Number of active CAT partitions on this node."""
        return int(self.columns.parts[self._slot])

    @property
    def booked_bw(self) -> float:
        """Total bandwidth (GB/s) booked by the scheduler on this node."""
        return float(self.columns.booked_bw[self._slot])

    @property
    def free_bw(self) -> float:
        return self.spec.peak_bw - self.booked_bw

    @property
    def booked_net(self) -> float:
        """Total booked link-utilization fraction (network dimension,
        the paper's Section 3.3 extension)."""
        return float(self.columns.booked_net[self._slot])

    @property
    def free_net(self) -> float:
        return 1.0 - self.booked_net

    @property
    def is_idle(self) -> bool:
        return not int(self.columns.n_res[self._slot])

    @property
    def resident_job_ids(self) -> List[int]:
        slot = self._slot
        n = int(self.columns.n_res[slot])
        return self.scols.job[slot, :n].tolist()

    def _resident_slot(self, job_id: int) -> int:
        """Dense slot index of a resident job, or ``-1``."""
        slot = self._slot
        n = int(self.columns.n_res[slot])
        row = self.scols.job[slot, :n].tolist()
        try:
            return row.index(job_id)
        except ValueError:
            return -1

    def occupancy_metric(self, beta: float) -> float:
        """The paper's node-selection metric ``Co + Bo + beta * Wo``
        (occupied fractions of cores, bandwidth, and LLC ways)."""
        cols = self.columns
        slot = self._slot
        spec = self.spec
        co = (spec.cores - int(cols.free_cores[slot])) / spec.cores
        bo = min(1.0, float(cols.booked_bw[slot]) / spec.peak_bw)
        wo = (spec.llc_ways - int(cols.free_ways[slot])) / spec.llc_ways
        return co + bo + beta * wo

    # -- allocation ----------------------------------------------------------

    def can_host(self, procs: int, ways: int, bw: float,
                 net: float = 0.0) -> bool:
        """Whether a new slice (``procs`` cores, ``ways`` dedicated ways,
        ``bw`` GB/s and ``net`` link fraction booked) fits right now."""
        cols = self.columns
        slot = self._slot
        if procs > cols.free_cores[slot]:
            return False
        if self.partitioned and (
            ways < cols.min_ways
            or cols.parts[slot] >= cols.max_partitions
            or ways > cols.free_ways[slot]
        ):
            return False
        if bw > cols.bw_eps[slot]:
            return False
        if net > cols.net_eps[slot]:
            return False
        return True

    # -- performance-model views ----------------------------------------------

    def effective_ways(self, job_id: int) -> float:
        """LLC ways the job effectively enjoys on this node.

        Partitioned: dedicated ways plus equal share of residual ways.
        Unpartitioned: proportional share of the whole LLC by process
        count (free-for-all sharing).
        """
        k = self._resident_slot(job_id)
        if k < 0:
            raise AllocationError(f"job {job_id} not on node {self.node_id}")
        cols = self.columns
        sc = self.scols
        slot = self._slot
        if self.partitioned:
            dedicated = int(sc.ways[slot, k])
            if not self.share_residual:
                return float(dedicated)
            bonus = int(cols.free_ways[slot]) / int(cols.parts[slot])
            return dedicated + bonus
        total = self.used_cores
        share = int(sc.procs[slot, k]) / total
        return self.spec.llc_ways * share

    def slices(self) -> List[Slice]:
        """Current slices for the contention solver."""
        cols = self.columns
        sc = self.scols
        slot = self._slot
        n = int(cols.n_res[slot])
        jobs = sc.job[slot, :n].tolist()
        procs = sc.procs[slot, :n].tolist()
        bws = sc.bw[slot, :n].tolist()
        meta = sc.meta
        enforce_bw = self.enforce_bw
        return [
            Slice(
                job_id=jid,
                program=meta[jid][0],
                procs=procs[i],
                effective_ways=self.effective_ways(jid),
                n_nodes=meta[jid][1],
                bw_cap=(
                    bws[i]
                    if enforce_bw and bws[i] > 0
                    else None
                ),
            )
            for i, jid in enumerate(jobs)
        ]

    def dedicated_ways(self, job_id: int) -> int:
        """Dedicated (CAT-partitioned) ways of a resident job."""
        if not self.partitioned:
            return 0
        k = self._resident_slot(job_id)
        if k < 0:
            return 0
        return int(self.scols.ways[self._slot, k])
