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
cluster.  The residents live in :class:`MixTable`: each node carries the
id of its interned resident mix, the ordered ``(job_id, procs)`` key,
and each job books the same ways, bandwidth and network on every node it
occupies (``MixTable.meta``).  Key and bookings fix every node column, so
the columns are a *function of the mix*: the table keeps one node row
per mix id, and the cluster's batched place/remove scatter the rows of
the new ids (DESIGN.md §7).  A :class:`NodeState` is a thin view over
its column slot and its mix, with no per-slice Python objects of its own.

Float discipline (bit-identity with re-summed bookkeeping, enforced by
``tests/test_soa_columns.py``): a row's booked bandwidth/network is the
left-to-right sum of its residents' nonzero bookings in key order, which
is insertion order — exactly the value incremental placements reach
(extending a left-to-right sum by one term is one IEEE addition) and the
value a removal must reach, because float subtraction does not invert
addition.  A zero booking skips its addition, and the epsilon
complements are ``(peak - booked) + 1e-9``, so the empty mix's row
equals a pristine node's construction values.
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
        # float discipline as booked_net.  It depends on the rack, not
        # the mix, so it is the one column no mix row carries.  The
        # per-rack ToR and spine aggregates are derived from it
        # (ClusterState).
        self.booked_cross = np.zeros(n, dtype=np.float64)
        self.bw_eps = np.full(n, spec.peak_bw + 1e-9, dtype=np.float64)
        self.net_eps = np.full(n, 1.0 + 1e-9, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.free_cores)


#: Inputs up to this length group as Python lists (numpy's per-call
#: overhead dominates below it).
_SHORT = 32


def distinct(values, bound: int = 0) -> tuple:
    """``(distinct values, counts, inverse)`` of a non-empty 1-D int
    array or list — ``np.unique``'s answer without its fixed cost on the
    shapes hot paths see: short inputs (plain lists throughout, values
    in first-occurrence order) and one repeated value (inverse
    ``None``).  Long inputs must be arrays and come out sorted; with
    ``bound`` (all values below it) they group by counting instead of
    sorting."""
    n = len(values)
    if n <= _SHORT:
        lst = values if isinstance(values, list) else values.tolist()
        if lst.count(lst[0]) == n:
            return lst[:1], [n], None
        pos: Dict[int, int] = {}
        inv = [pos.setdefault(v, len(pos)) for v in lst]
        return list(pos), [inv.count(i) for i in range(len(pos))], inv
    v0 = int(values[0])
    if bool((values == v0).all()):
        return [v0], [n], None
    if not bound:
        uniq, inv, cnt = np.unique(values, return_inverse=True,
                                   return_counts=True)
        return uniq.tolist(), cnt.tolist(), inv
    cnt = np.bincount(values, minlength=bound)
    uniq = np.flatnonzero(cnt)
    lut = np.empty(bound, dtype=np.int64)
    lut[uniq] = np.arange(uniq.size)
    return uniq.tolist(), cnt[uniq].tolist(), lut[values]


#: The fields of a mix's node row (:meth:`MixTable.row`), named after
#: the node columns they fill.
ROW_FIELDS = ("free_cores", "free_ways", "parts", "n_res", "booked_bw",
              "booked_net", "bw_eps", "net_eps")
FREE_CORES, FREE_WAYS, PARTS = range(3)


class MixTable:
    """Interned resident mixes of a pool of nodes.

    ``mix[slot]`` is an id into ``keys``, where a key is the node's
    ordered resident ``(job_id, procs)`` tuple in insertion order.  Per-
    *job* attributes live in ``meta``: ``job_id -> (program, n_nodes,
    slice count, ways, bw, net)``.  A job books the same program, width,
    ways, bandwidth and network on every node it occupies (the cluster's
    ``place_slices`` refuses anything else), and the slice count tracks
    how many of its slices are installed anywhere in the pool, so
    partial placements and removals keep it exact.

    Key plus bookings fully determine a node: its arbitration inputs
    and every column of :class:`NodeColumns` but the rack-dependent
    cross share.  Every node carrying one mix therefore shares one
    arbitration view (``views``, resolved lazily by
    :meth:`repro.sim.cluster.ClusterState.arbitration_batch`) and one
    node row (``rows``), and a wide placement or removal computes one
    transition per distinct mix instead of one per node.

    Id 0 is the permanent empty mix.  Other entries are refcounted by
    node count and freed at zero, their ids recycled, so the table never
    outgrows the live mix population.

    Three per-mix stores live and die with the id.  Each is reset
    whenever an id is interned or freed (``None`` on a freed id): a key
    fixes its residents and their procs, and their bookings cannot
    change while they are resident, so an entry is valid until the id is
    freed.

    - ``views[m]``: the mix's arbitration view;
    - ``rows[m]``: the mix's node row (:meth:`row`), filled on first use;
    - ``rates[m]``: a list parallel to ``keys[m]``, each resident's
      per-process instruction rate under the view, filled lazily by the
      running-job table's row rebuild (DESIGN.md §7).

    ``held[job_id]`` maps each mix id holding the job to its node count
    — the job's placement reduced to its distinct mixes, kept by the
    transitions of :meth:`add` / :meth:`drop` — so the rebuild reads
    mixes and never nodes.
    """

    __slots__ = ("mix", "stride", "keys", "ids", "refs", "views", "rates",
                 "rows", "held", "meta", "free", "partitioned", "cores",
                 "llc_ways", "peak_bw")

    def __init__(self, n: int, spec: NodeSpec, partitioned: bool) -> None:
        self.mix = np.zeros(n, dtype=np.int32)
        # (mix, procs) pairs encode as ``mix * stride + procs``; a slice
        # never holds more than ``cores`` processes.
        self.stride = spec.cores + 1
        self.keys: List[Optional[tuple]] = [()]
        self.ids: Dict[tuple, int] = {(): 0}
        self.refs: List[int] = [n]
        self.views: List[Optional[tuple]] = [((), (), 0.0, ())]
        self.rates: List[Optional[list]] = [[]]
        self.rows: List[Optional[tuple]] = [None]
        self.held: Dict[int, Dict[int, int]] = {}
        self.meta: Dict[int, Tuple[ProgramSpec, int, int, int, float,
                                   float]] = {}
        self.free: List[int] = []
        self.partitioned = partitioned
        self.cores = spec.cores
        self.llc_ways = spec.llc_ways
        self.peak_bw = spec.peak_bw

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
            self.rows.append(None)
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
            self.rows[m] = None
            self.rates[m] = None
            self.free.append(m)

    def row(self, m: int) -> tuple:
        """The node row of mix ``m``: the values of the node columns
        :data:`ROW_FIELDS` on every node carrying it, computed from the
        key and ``meta`` on first use.  The booked sums run left to
        right over the key, skipping zero bookings (see the module
        docstring)."""
        row = self.rows[m]
        if row is not None:
            return row
        key = self.keys[m]
        meta = self.meta
        used = ways = 0
        bw = net = 0.0
        for j, p in key:
            e = meta[j]
            used += p
            ways += e[3]
            if e[4] != 0.0:
                bw += e[4]
            if e[5] != 0.0:
                net += e[5]
        if self.partitioned:
            free_ways, parts = self.llc_ways - ways, len(key)
        else:
            free_ways, parts = self.llc_ways, 0
        row = self.rows[m] = (
            self.cores - used, free_ways, parts, len(key), bw, net,
            (self.peak_bw - bw) + 1e-9, (1.0 - net) + 1e-9)
        return row

    def slices(self, m: int, share_residual: bool,
               enforce_bw: bool) -> List[Slice]:
        """The contention solver's slices of any node carrying mix
        ``m``.  Partitioned: a job's effective ways are its dedicated
        ways plus an equal share of the row's free ways; unpartitioned:
        a share of the whole LLC proportional to its processes."""
        key = self.keys[m]
        row = self.row(m)
        meta = self.meta
        partitioned = self.partitioned
        used = self.cores - row[FREE_CORES]
        out = []
        for j, p in key:
            e = meta[j]
            if not partitioned:
                eff = self.llc_ways * (p / used)
            elif share_residual:
                eff = e[3] + row[FREE_WAYS] / row[PARTS]
            else:
                eff = float(e[3])
            out.append(Slice(
                job_id=j, program=e[0], procs=p, effective_ways=eff,
                n_nodes=e[1],
                bw_cap=e[4] if enforce_bw and e[4] > 0 else None,
            ))
        return out

    def groups(self, arr: np.ndarray, procs: np.ndarray) -> tuple:
        """The distinct ``(prior mix, procs)`` pairs of a placement of
        ``procs[i]`` (at most ``cores``) processes on node ``arr[i]``:
        ``(mix ids, procs, node counts, inverse)``, inverse as in
        :func:`distinct`."""
        mids = self.mix[arr]
        stride = self.stride
        if len(arr) <= _SHORT:
            codes = [m * stride + p for m, p in
                     zip(mids.tolist(), procs.tolist())]
        else:
            codes = mids.astype(np.int64) * stride + procs
        codes, counts, inv = distinct(codes)
        olds, ps = [], []
        for c in codes:
            m, p = divmod(c, stride)
            olds.append(m)
            ps.append(p)
        return olds, ps, counts, inv

    def _move(self, arr: np.ndarray, olds: List[int], counts: List[int],
              news: List[tuple], inv, job_id: int,
              adding: bool) -> List[int]:
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
        return ids

    def add(self, arr: np.ndarray, job_id: int,
            groups: tuple) -> Tuple[List[int], Set[int]]:
        """Append ``job_id`` to the mix of every node in ``arr``, with
        the processes of its :meth:`groups` entry.  Returns the new mix
        id of each group and the job's co-runners: the jobs of the
        non-empty prior mixes, which are exactly the residents of the
        nodes it now shares."""
        olds, ps, counts, inv = groups
        keys = self.keys
        news = []
        corunners: Set[int] = set()
        for m, p in zip(olds, ps):
            key = keys[m]
            news.append(key + ((job_id, p),))
            if key:
                corunners.update([j for j, _ in key])
        return self._move(arr, olds, counts, news, inv, job_id,
                          True), corunners

    def drop(self, arr: np.ndarray, job_id: int,
             groups: tuple) -> Tuple[List[int], Set[int]]:
        """Remove ``job_id`` from the mix of every node in ``arr``, whose
        distinct mixes ``groups = (mix ids, node counts, inverse)`` all
        hold it.  Returns the new mix id of each group and the job's
        co-runners: the jobs of the prior mixes it shared, minus itself
        (so the jobs of the non-empty new mixes)."""
        olds, counts, inv = groups
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
            # insertion sequence of a row-by-row resident scan.  A set
            # of ints iterates in an order that depends on that
            # sequence, and the runtime's finish pushes follow it
            # (DESIGN.md §7).
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

    A cluster-owned node shares its :class:`ClusterState`'s column pool
    and mix table (``slot`` = node id), and slices reach it only through
    the cluster's ``place_slices`` / ``remove_slices``; a standalone node
    (a pristine probe) builds a private single-slot pool and table.
    """

    __slots__ = (
        "node_id", "spec", "partitioned", "enforce_bw", "share_residual",
        "columns", "mixes", "_slot",
    )

    def __init__(self, node_id: int, spec: NodeSpec,
                 partitioned: bool = True, enforce_bw: bool = False,
                 share_residual: bool = True,
                 columns: Optional[NodeColumns] = None,
                 mixes: Optional[MixTable] = None,
                 slot: Optional[int] = None) -> None:
        self.node_id = node_id
        self.spec = spec
        self.partitioned = partitioned
        self.enforce_bw = enforce_bw
        self.share_residual = share_residual
        if columns is None:
            columns = NodeColumns(1, spec)
            slot = 0
        if mixes is None:
            mixes = MixTable(len(columns), spec, partitioned)
        self.columns = columns
        self.mixes = mixes
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
    def mix(self) -> int:
        """Id of this node's resident mix."""
        return int(self.mixes.mix[self._slot])

    @property
    def resident_job_ids(self) -> List[int]:
        return [j for j, _ in self.mixes.keys[self.mix]]

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

    def slices(self) -> List[Slice]:
        """Current slices for the contention solver, read from this
        node's own columns — the reference :meth:`MixTable.slices`
        (which reads the mix's cached row) is checked against."""
        meta = self.mixes.meta
        enforce_bw = self.enforce_bw
        return [
            Slice(
                job_id=j,
                program=meta[j][0],
                procs=p,
                effective_ways=self._effective_ways(j, p),
                n_nodes=meta[j][1],
                bw_cap=meta[j][4] if enforce_bw and meta[j][4] > 0 else None,
            )
            for j, p in self.mixes.keys[self.mix]
        ]

    def effective_ways(self, job_id: int) -> float:
        """LLC ways the job effectively enjoys on this node.

        Partitioned: dedicated ways plus equal share of residual ways.
        Unpartitioned: proportional share of the whole LLC by process
        count (free-for-all sharing).
        """
        for j, p in self.mixes.keys[self.mix]:
            if j == job_id:
                return self._effective_ways(j, p)
        raise AllocationError(f"job {job_id} not on node {self.node_id}")

    def _effective_ways(self, job_id: int, procs: int) -> float:
        cols = self.columns
        slot = self._slot
        if self.partitioned:
            dedicated = self.mixes.meta[job_id][3]
            if not self.share_residual:
                return float(dedicated)
            return dedicated + int(cols.free_ways[slot]) / int(cols.parts[slot])
        return self.spec.llc_ways * (procs / self.used_cores)

    def dedicated_ways(self, job_id: int) -> int:
        """Dedicated (CAT-partitioned) ways of a resident job."""
        if not self.partitioned or job_id not in self.resident_job_ids:
            return 0
        return self.mixes.meta[job_id][3]
