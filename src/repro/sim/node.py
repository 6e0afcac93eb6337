"""The node pool's mix table: the runtime state of every compute node.

Per resident mix it tracks free cores, CAT way allocations, booked
bandwidth, and the resident job slices.  A node can run in *partitioned*
mode (SNS: each job has dedicated ways; residual ways shared equally) or
*unpartitioned* mode (CE/CS: no CAT actuation — the LLC is a
free-for-all and capacity divides in proportion to each job's process
count, which models the steady state of an unmanaged shared cache under
equal per-core pressure).

A node's state is its resident mix id.  :class:`MixTable` interns each
node's ordered ``(job_id, procs)`` resident key, and each job books the
same ways, bandwidth and network on every node it occupies
(``MixTable.meta``).  Key and bookings fix everything a scheduler reads
of a node — free cores, free ways, partition count, booked
bandwidth/network and the scan-ready epsilon complements — so the table
keeps one array per field indexed by mix id, filled when the id is
interned, and readers gather ``field[mix[nodes]]`` (DESIGN.md §7); no
per-node object exists.  :func:`recount` derives the same fields from
the key and the bookings from scratch, never from those arrays;
``verify_columns`` checks the arrays against it.

Float discipline (bit-identity with re-summed bookkeeping, enforced by
``tests/test_soa_columns.py``): a mix's booked bandwidth/network is the
left-to-right sum of its residents' nonzero bookings in key order, which
is insertion order — exactly the value incremental placements reach
(extending a left-to-right sum by one term is one IEEE addition) and the
value a removal must reach, because float subtraction does not invert
addition.  A zero booking skips its addition, and the epsilon
complements are ``(peak - booked) + 1e-9``, so the empty mix holds a
pristine node's values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.apps.program import ProgramSpec
from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.contention import Slice


#: Inputs up to this length group as Python lists (numpy's per-call
#: overhead dominates below it).
_SHORT = 32


def distinct(values, bound: int) -> tuple:
    """``(distinct values, counts, inverse)`` of a non-empty 1-D array
    or list of ints in ``[0, bound)``.  Short inputs stay plain lists
    throughout, values in first-occurrence order; long inputs must be
    arrays and come out as ``np.unique`` gives them, sorted, but grouped
    by counting over ``bound`` in linear time.  One repeated value has
    inverse ``None``."""
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
    cnt = np.bincount(values, minlength=bound)
    uniq = (cnt != 0).nonzero()[0]
    lut = np.empty(bound, dtype=np.int64)
    lut[uniq] = np.arange(uniq.size)
    return uniq.tolist(), cnt[uniq].tolist(), lut[values]


#: The per-mix arrays of :class:`MixTable`, grown together with the id
#: space.
_INTS = ("refs", "free_cores", "free_ways", "parts")
_FLOATS = ("booked_bw", "booked_net", "bw_eps", "net_eps")
_ARRAYS = _INTS + _FLOATS
#: Ids the arrays hold before their first growth.
_CAPACITY = 16


def recount(key: tuple, meta: dict, spec: NodeSpec,
            partitioned: bool) -> Dict[str, float]:
    """The per-mix fields of any node carrying resident ``key``, derived
    from the key and the per-job bookings ``meta`` alone — the reference
    :meth:`ClusterState.verify_columns` checks :class:`MixTable`'s
    arrays against.  The booked sums run left to right over the key."""
    used = ways = 0
    bw = net = 0.0
    for j, p in key:
        e = meta[j]
        used += p
        ways += e[3]
        bw += e[4]
        net += e[5]
    return {
        "free_cores": spec.cores - used,
        "free_ways": spec.llc_ways - ways if partitioned else spec.llc_ways,
        "parts": len(key) if partitioned else 0,
        "booked_bw": bw,
        "booked_net": net,
        "bw_eps": (spec.peak_bw - bw) + 1e-9,
        "net_eps": (1.0 - net) + 1e-9,
    }


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

    Key plus bookings fully determine a node but for the rack-dependent
    cross share: its arbitration inputs and its capacities.  Every node
    carrying one mix therefore shares one arbitration view (``views``,
    resolved lazily by
    :meth:`repro.sim.cluster.ClusterState.arbitration_batch`) and one
    entry of each per-mix array, and a wide placement or removal
    computes one transition per distinct mix instead of one per node.

    Id 0 is the permanent empty mix.  Other entries are refcounted by
    node count (``refs``) and freed at zero, their ids recycled, so the
    table never outgrows the live mix population.

    Per-mix state lives and dies with the id.  A key fixes its residents
    and their procs, and their bookings cannot change while they are
    resident, so an entry is valid until the id is freed:

    - ``free_cores``, ``free_ways``, ``parts``, ``booked_bw``,
      ``booked_net``, ``bw_eps``, ``net_eps``: one numpy array per
      field, written when the id is interned (:meth:`_fill`; a freed
      id's entries are stale and no node reads them).  The arrays, with
      ``refs``, double when the id space outgrows them.  Resident
      counts need no array: they are ``len(keys[m])``;
    - ``views[m]``: the mix's arbitration view, reset on intern and free;
    - ``rates[m]``: a list parallel to ``keys[m]``, each resident's
      per-process instruction rate under the view, filled lazily by the
      running-job table's row rebuild (DESIGN.md §7); reset on intern
      and free.

    ``held[job_id]`` maps each mix id holding the job to its node count
    — the job's placement reduced to its distinct mixes, kept by the
    transitions of :meth:`add` / :meth:`drop` — so the rebuild reads
    mixes and never nodes.
    """

    __slots__ = ("mix", "stride", "keys", "ids", "views", "rates", "held",
                 "meta", "free", "partitioned", "cores", "llc_ways",
                 "peak_bw", "max_partitions") + _ARRAYS

    def __init__(self, n: int, spec: NodeSpec, partitioned: bool) -> None:
        self.mix = np.zeros(n, dtype=np.int32)
        # (mix, procs) pairs encode as ``mix * stride + procs``; a slice
        # never holds more than ``cores`` processes.
        self.stride = spec.cores + 1
        self.keys: List[Optional[tuple]] = [()]
        self.ids: Dict[tuple, int] = {(): 0}
        self.views: List[Optional[tuple]] = [((), (), 0.0, ())]
        self.rates: List[Optional[list]] = [[]]
        self.held: Dict[int, Dict[int, int]] = {}
        self.meta: Dict[int, Tuple[ProgramSpec, int, int, int, float,
                                   float]] = {}
        self.free: List[int] = []
        self.partitioned = partitioned
        self.cores = spec.cores
        self.llc_ways = spec.llc_ways
        self.peak_bw = spec.peak_bw
        self.max_partitions = spec.cache.max_partitions
        for name in _ARRAYS:
            setattr(self, name, np.zeros(
                _CAPACITY, dtype=np.int64 if name in _INTS else np.float64))
        self.refs[0] = n
        self._fill(0)

    def intern(self, key: tuple, count: int) -> int:
        """Id of ``key`` with its refcount raised by ``count``."""
        m = self.ids.get(key)
        if m is not None:
            self.refs[m] += count
            return m
        if self.free:
            m = self.free.pop()
            self.keys[m] = key
            self.rates[m] = [None] * len(key)
        else:
            m = len(self.keys)
            if m == len(self.refs):
                for name in _ARRAYS:
                    old = getattr(self, name)
                    grown = np.zeros(2 * m, dtype=old.dtype)
                    grown[:m] = old
                    setattr(self, name, grown)
            self.keys.append(key)
            self.views.append(None)
            self.rates.append([None] * len(key))
        self.refs[m] = count
        self.ids[key] = m
        self._fill(m)
        return m

    def _fill(self, m: int) -> None:
        """Write the per-mix arrays of id ``m`` from its key and
        ``meta``: the booked sums run left to right over the key,
        skipping zero bookings (see the module docstring)."""
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
        self.free_cores[m] = self.cores - used
        if self.partitioned:
            self.free_ways[m] = self.llc_ways - ways
            self.parts[m] = len(key)
        else:
            self.free_ways[m] = self.llc_ways
        self.booked_bw[m] = bw
        self.booked_net[m] = net
        self.bw_eps[m] = (self.peak_bw - bw) + 1e-9
        self.net_eps[m] = (1.0 - net) + 1e-9

    def release(self, m: int, count: int) -> None:
        left = self.refs[m] - count
        self.refs[m] = left
        if not left and m:
            del self.ids[self.keys[m]]
            self.keys[m] = None
            self.views[m] = None
            self.rates[m] = None
            self.free.append(m)

    def fits(self, cores: Optional[int], ways: int, bw: float,
             net: float, ids=slice(None)):
        """The mix-level demand test: per id the arrays hold (or for the
        ids ``ids`` selects, e.g. one int), whether a node carrying it
        can host a slice of ``cores`` processes, ``ways`` dedicated ways
        (range-checked by the caller) and ``bw`` GB/s / ``net`` link
        fraction booked: the cores, the ways and a free CAT partition,
        and the bandwidth and network headroom.  Id 0, the empty mix,
        answers for every idle node.  ``cores=None`` skips the core
        test; bandwidth and network are tested only for a positive
        demand (the epsilon complements are strictly positive); ``None``
        means nothing was tested.  A freed or unused id's answer is
        meaningless, but no node carries it and its refcount is zero."""
        ok = None if cores is None else self.free_cores[ids] >= cores
        if bw > 0.0:
            m = self.bw_eps[ids] >= bw
            ok = m if ok is None else ok & m
        if self.partitioned:
            m = self.free_ways[ids] >= ways
            ok = m if ok is None else ok & m
            ok &= self.parts[ids] < self.max_partitions
        if net > 0.0:
            m = self.net_eps[ids] >= net
            ok = m if ok is None else ok & m
        return ok

    def occupancy(self, beta: float) -> np.ndarray:
        """The paper's node-selection metric ``Co + Bo + beta * Wo`` per
        mix id: the occupied fractions of cores, booked bandwidth
        (capped at 1) and LLC ways.  Unpartitioned nodes never allocate
        ways, so their metric is ``Co + Bo``."""
        co = (self.cores - self.free_cores) / self.cores
        bo = np.minimum(1.0, self.booked_bw / self.peak_bw)
        if not self.partitioned:
            return co + bo
        return co + bo + beta * ((self.llc_ways - self.free_ways)
                                 / self.llc_ways)

    def slices(self, m: int, share_residual: bool,
               enforce_bw: bool) -> List[Slice]:
        """The contention solver's slices of any node carrying mix
        ``m``.  Partitioned: a job's effective ways are its dedicated
        ways plus an equal share of the mix's free ways; unpartitioned:
        a share of the whole LLC proportional to its processes."""
        key = self.keys[m]
        meta = self.meta
        partitioned = self.partitioned
        used = self.cores - self.free_cores.item(m)
        free_ways = self.free_ways.item(m)
        parts = self.parts.item(m)
        out = []
        for j, p in key:
            e = meta[j]
            if not partitioned:
                eff = self.llc_ways * (p / used)
            elif share_residual:
                eff = e[3] + free_ways / parts
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
        codes, counts, inv = distinct(codes, len(self.keys) * stride)
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
                first = np.full(len(olds), len(inv))
                np.minimum.at(first, inv, np.arange(len(inv)))
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
