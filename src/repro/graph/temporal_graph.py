"""The temporal-network data structure (Definition 1 of the paper).

A :class:`TemporalGraph` is an undirected multigraph whose every edge carries
a timestamp and a weight.  The layout is a time-sorted edge table plus a
per-node, time-sorted incidence index, so the queries the algorithms need are
all cheap:

- ``events_before(v, t)``: the historical interactions of ``v`` strictly (or
  non-strictly) before ``t`` — one ``searchsorted`` on the per-node time
  column.  This powers the temporal random walk (Section IV.A) and HTNE's
  neighborhood-formation sequences.
- ``edges_until(t)`` / ``snapshot(t)``: the graph as of time ``t``, used by
  the link-prediction protocol (train on the oldest 80% of edges).
- chronological edge iteration, used to replay edge formations during EHNA
  training.

Timestamps may be arbitrary floats (years, epoch seconds).  ``times01`` gives
the monotone rescaling to ``[0, 1]`` used inside decay kernels and attention
(see DESIGN.md, substitution table).

**Streaming extension.**  ``extend_in_place`` is the one growth path:
arriving events land in an append buffer in O(batch), and the stable
merge/CSR rebuild runs once per **compaction** — triggered every
``compact_every`` buffered events, by an explicit ``compact()``, or
transparently on the first read of any derived structure.  Readers therefore
always observe the fully merged graph (``pending_events`` tells how many
events are currently buffered), and a compacted stream is bitwise identical
to a from-scratch ``from_edges`` build of the same events.  ``take_fresh``
hands the not-yet-absorbed event ids to ``EmbeddingMethod.partial_fit``
(which grows a :meth:`copy` when given edges, so the caller's graph object
is untouched); ``pin_time_scale`` freezes the ``times01`` mapping so a
growing stream head cannot silently re-scale the history a trained model
was fitted on.

**Storage backends.**  The base event columns live behind the
:class:`~repro.storage.GraphStorage` seam: ``from_edges`` (and every
derived graph — snapshots, splits, compactions) wraps in-memory arrays in an
:class:`~repro.storage.ArrayStorage`, while :meth:`from_storage` builds a
graph over any backend — in particular a columnar on-disk
:class:`~repro.storage.MemmapStorage`, whose lazily memory-mapped columns
feed the very same vectorized query/CSR/walk code without ever residing in
memory at once.  Derived structures (incidence CSR, distinct CSR, pair
index) are always in-memory regardless of backend, and *mutation
materializes*: a compaction of buffered arrivals rebinds the graph to a
fresh ``ArrayStorage`` holding the merged table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.dtypes import index_dtype_for
from repro.storage.base import (
    ArrayStorage,
    EventBatch,
    GraphStorage,
    validate_event_columns,
)
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class EdgeEvent:
    """One timestamped interaction, as yielded by chronological iteration."""

    u: int
    v: int
    time: float
    weight: float
    edge_id: int


class TemporalGraph:
    """Undirected temporal multigraph with O(log deg) historical queries.

    Construct via :meth:`from_edges`; the constructor itself expects already
    validated, time-sorted arrays and is considered internal.
    """

    def __init__(self, num_nodes, src, dst, time, weight):
        """Wrap already validated, time-sorted edge arrays (internal)."""
        self._init_from_store(
            int(num_nodes),
            ArrayStorage(src, dst, time, weight, num_nodes=int(num_nodes)),
        )

    def _init_from_store(self, num_nodes: int, store: GraphStorage) -> None:
        """Bind a storage backend and build the derived structures."""
        self._n = num_nodes
        self._store = store
        self._pending: list[EventBatch] = []  # buffered, not yet merged
        self._pending_count = 0
        self._unabsorbed = np.empty(0, dtype=np.int64)  # compacted, unclaimed
        self._compactions = 0
        self._scale = None  # pinned (lo, hi) of the times01 mapping, or None
        self._build_incidence()
        self._pair_keys = None  # lazy: sorted unique min*n+max pair keys
        self._times01 = None  # lazy: times rescaled to [0, 1]
        self._inc_weight = None  # lazy: per-incidence-slot edge weights
        self._distinct = None  # lazy: distinct-neighbor CSR

    # -- base columns, delegated to the storage backend ----------------
    # Every derived structure and query reads the event table through these
    # four properties, which is what makes the graph backend-agnostic: an
    # ArrayStorage hands back resident arrays, a MemmapStorage hands back
    # lazily opened read-only maps, and the numpy code downstream is
    # identical either way.
    @property
    def _src(self) -> np.ndarray:
        return self._store.column("src")

    @property
    def _dst(self) -> np.ndarray:
        return self._store.column("dst")

    @property
    def _time(self) -> np.ndarray:
        return self._store.column("time")

    @property
    def _weight(self) -> np.ndarray:
        return self._store.column("weight")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, src, dst, time, weight=None, num_nodes=None) -> "TemporalGraph":
        """Build a graph from parallel edge arrays.

        Edges are stably sorted by timestamp.  Self-loops are rejected;
        parallel edges (repeat interactions) are kept — they are meaningful
        temporal events (e.g. repeat collaborations in DBLP).
        """
        batch = validate_event_columns(src, dst, time, weight)
        src, dst, time, weight = batch.src, batch.dst, batch.time, batch.weight
        if src.size == 0:
            raise ValueError("a temporal graph needs at least one edge")

        max_node = int(max(src.max(), dst.max()))
        if num_nodes is None:
            num_nodes = max_node + 1
        elif num_nodes <= max_node:
            raise ValueError(
                f"num_nodes={num_nodes} too small for max node id {max_node}"
            )

        order = np.argsort(time, kind="stable")
        return cls(num_nodes, src[order], dst[order], time[order], weight[order])

    @classmethod
    def from_storage(
        cls, storage: GraphStorage, num_nodes=None, validate: bool = False
    ) -> "TemporalGraph":
        """Build a graph over an existing storage backend.

        The storage's columns must already be time-sorted and validated —
        true by construction for any store a
        :class:`~repro.storage.MemmapStorageWriter` finalized, which is why
        the default trusts the manifest.  ``validate=True`` re-runs the full
        column validation plus a sortedness scan (one pass over the mapped
        columns) for stores of unknown provenance.  ``num_nodes`` overrides
        the storage's recorded id space to reserve headroom.

        Unlike :meth:`from_edges`, no copy or re-sort happens here: the
        graph reads the backend's columns in place, so a memmap-backed
        graph's event table stays on disk.
        """
        if storage.num_events == 0:
            raise ValueError("a temporal graph needs at least one edge")
        n = storage.num_nodes if num_nodes is None else int(num_nodes)
        if validate:
            batch = validate_event_columns(
                storage.src, storage.dst, storage.time, storage.weight
            )
            if np.any(np.diff(batch.time) < 0):
                raise ValueError("storage columns are not time-sorted")
            max_node = int(max(batch.src.max(), batch.dst.max()))
            if n <= max_node:
                raise ValueError(
                    f"num_nodes={n} too small for max node id {max_node}"
                )
        graph = cls.__new__(cls)
        graph._init_from_store(n, storage)
        return graph

    # ------------------------------------------------------------------
    # shared-memory twins (the repro.parallel substrate)
    # ------------------------------------------------------------------
    def to_shared(self, name: str | None = None) -> "TemporalGraph":
        """A twin of this graph backed by one shared-memory segment.

        Forces every lazy derived structure (incidence CSR, distinct CSR,
        pair index, scaled times) and packs it next to the event columns in
        a :class:`~repro.storage.SharedMemoryStorage` segment, then returns
        a new graph whose arrays are read-only views into that segment.
        The receiver is untouched.  Worker processes attach zero-copy with
        :meth:`from_handle` via the twin's :attr:`shared_handle`; a pinned
        time scale travels in the handle.  The creating process owns the
        segment — it is unlinked when the twin's storage is closed or
        garbage collected.
        """
        from repro.storage.shared import SharedMemoryStorage

        self._ensure_compacted()
        indptr, nbr, times, weights, eids = self.incidence_csr()
        dindptr, dnbr, dmult = self.distinct_csr()
        columns = {
            "src": self._src,
            "dst": self._dst,
            "time": self._time,
            "weight": self._weight,
        }
        derived = {
            "inc_offsets": indptr,
            "inc_nbr": nbr,
            "inc_time": times,
            "inc_weight": weights,
            "inc_eid": eids,
            "degree": self._degree,
            "dindptr": dindptr,
            "dnbr": dnbr,
            "dmult": dmult,
            "times01": self.times01(),
            "pair_keys": self._pair_index(),
        }
        store = SharedMemoryStorage.from_graph_arrays(
            columns, derived, num_nodes=self._n, time_scale=self._scale, name=name
        )
        twin = TemporalGraph.__new__(TemporalGraph)
        twin._init_from_shared(store)
        return twin

    @classmethod
    def from_handle(cls, handle) -> "TemporalGraph":
        """Attach to another process's shared graph — zero copy, zero rebuild.

        ``handle`` is a :class:`~repro.storage.PackHandle` from
        :attr:`shared_handle` (picklable, a few hundred bytes).  Every array
        — event columns *and* the derived CSR indexes — is mapped read-only
        from the owner's segment, so attaching costs no per-event work at
        all; this is what makes worker-pool startup independent of graph
        size.
        """
        from repro.storage.shared import SharedMemoryStorage

        graph = cls.__new__(cls)
        graph._init_from_shared(SharedMemoryStorage.attach(handle))
        return graph

    def _init_from_shared(self, store) -> None:
        """Bind a shared store, wiring derived structures straight to its
        views instead of rebuilding them (the :meth:`_init_from_store`
        counterpart for segments that already carry the indexes)."""
        self._n = store.num_nodes
        self._store = store
        self._pending = []
        self._pending_count = 0
        self._unabsorbed = np.empty(0, dtype=np.int64)
        self._compactions = 0
        self._scale = store.time_scale
        self._inc_offsets = store.array("inc_offsets")
        self._inc_nbr = store.array("inc_nbr")
        self._inc_eid = store.array("inc_eid")
        self._inc_time = store.array("inc_time")
        self._degree = store.array("degree")
        self._index_dtype = self._inc_offsets.dtype
        self._distinct = (
            store.array("dindptr"),
            store.array("dnbr"),
            store.array("dmult"),
        )
        self._pair_keys = store.array("pair_keys")
        self._times01 = store.array("times01")
        self._inc_weight = store.array("inc_weight")

    @property
    def shared_handle(self):
        """The picklable attach token of a shared-memory-backed graph.

        Workers pass it to :meth:`from_handle`.  Raises ``ValueError`` for
        other backends — call :meth:`to_shared` first.
        """
        self._ensure_compacted()
        if self._store.backend != "shared":
            raise ValueError(
                "graph is not backed by shared memory; call to_shared() first"
            )
        return self._store.handle

    # ------------------------------------------------------------------
    # streaming extension (the amortized growth path)
    # ------------------------------------------------------------------
    def extend_in_place(
        self, batch: EventBatch, num_nodes=None, compact_every=None
    ) -> "TemporalGraph":
        """Append a validated batch to this graph's buffer in O(batch); returns self.

        The batch is not checked again; it is stored in an append buffer,
        and the stable merge + CSR rebuild runs once per compaction — when
        ``compact_every`` buffered events accumulate, on an explicit
        :meth:`compact`, or transparently on the first read of any derived
        structure.  New node ids beyond the current id space grow the graph
        immediately (node ids are stable — growth never renumbers existing
        nodes); ``num_nodes`` reserves extra headroom explicitly.

        This **mutates** the receiver, which is why
        :func:`repro.datasets.load` hands out :meth:`copy` snapshots of its
        cache entries and ``EmbeddingMethod.partial_fit(edges)`` grows a
        copy of the model's graph.  Use it when the graph is an owned, live
        object — the streaming ingest path (`repro.stream.OnlineService`) —
        not on graphs shared with other readers.
        """
        if batch.num_events == 0:
            return self
        max_node = int(max(batch.src.max(), batch.dst.max()))
        n = max(self._n, max_node + 1)
        if num_nodes is not None:
            if num_nodes <= max_node:
                raise ValueError(
                    f"num_nodes={num_nodes} too small for max node id {max_node}"
                )
            n = max(n, int(num_nodes))
        self._n = n
        self._pending.append(batch)
        self._pending_count += batch.num_events
        if compact_every is not None and self._pending_count >= int(compact_every):
            self.compact()
        return self

    @property
    def pending_events(self) -> int:
        """Number of buffered events awaiting compaction."""
        return self._pending_count

    @property
    def compactions(self) -> int:
        """How many buffer compactions this graph has performed."""
        return self._compactions

    def compact(self) -> np.ndarray:
        """Merge every buffered event into the sorted edge table.

        One stable merge covers all pending events regardless of how many
        ``extend_in_place`` calls buffered them — that is the amortization.
        Returns the edge ids of the just-merged events *in the new id
        space* (empty when nothing was pending); ids of older events may
        shift when arrivals carry historical timestamps.  After compaction
        the graph is bitwise identical to a from-scratch build of the same
        event set.
        """
        if not self._pending:
            return np.empty(0, dtype=np.int64)
        base_m = self._src.size
        all_src = np.concatenate([self._src] + [b.src for b in self._pending])
        all_dst = np.concatenate([self._dst] + [b.dst for b in self._pending])
        all_time = np.concatenate([self._time] + [b.time for b in self._pending])
        all_weight = np.concatenate([self._weight] + [b.weight for b in self._pending])
        self._pending.clear()
        self._pending_count = 0
        order = np.argsort(all_time, kind="stable")
        # Positions in the merged order: new_pos[old_position] = new id.
        new_pos = np.empty(order.size, dtype=np.int64)
        new_pos[order] = np.arange(order.size, dtype=np.int64)
        # Mutation materializes: whatever backend held the old table (an
        # on-disk store included), the merged table is a fresh in-memory
        # ArrayStorage.  Rebinding (never writing into the old columns)
        # keeps copy() snapshots and read-only memmaps intact.
        self._store = ArrayStorage(
            all_src[order],
            all_dst[order],
            all_time[order],
            all_weight[order],
            num_nodes=self._n,
        )
        self._build_incidence()
        # Rebind (never mutate) the lazy structures: copies made by copy()
        # keep observing the pre-compaction arrays.
        self._pair_keys = None
        self._times01 = None
        self._inc_weight = None
        self._distinct = None
        fresh = np.sort(new_pos[base_m:])
        # Ids handed out by earlier compactions but not yet claimed by
        # take_fresh() shift with the merge; remap them into the new space.
        self._unabsorbed = np.sort(
            np.concatenate([new_pos[self._unabsorbed], fresh])
        )
        self._compactions += 1
        return fresh

    def take_fresh(self) -> np.ndarray:
        """Claim the event ids appended since the last ``take_fresh``.

        Compacts first, so the returned ids index the current edge table.
        This is the hand-off `EmbeddingMethod.partial_fit(None)` uses to
        train on buffered arrivals exactly once: ids survive intermediate
        compactions (they are remapped each merge) and are cleared once
        claimed.
        """
        self._ensure_compacted()
        fresh, self._unabsorbed = self._unabsorbed, np.empty(0, dtype=np.int64)
        return fresh

    def _ensure_compacted(self) -> None:
        """Readers call this first: buffered events must be visible."""
        if self._pending:
            self.compact()

    def copy(self) -> "TemporalGraph":
        """A snapshot sharing this graph's (immutable) arrays in O(1).

        Compaction *rebinds* arrays rather than writing into them, so the
        copy and the original can diverge freely afterwards: extending one
        in place never changes what the other observes.  This is what makes
        copy-on-hit cheap enough for the ``datasets.load`` memoization.
        """
        self._ensure_compacted()
        twin = TemporalGraph.__new__(TemporalGraph)
        twin.__dict__.update(self.__dict__)
        twin._pending = []
        twin._pending_count = 0
        twin._unabsorbed = self._unabsorbed.copy()
        return twin

    # ------------------------------------------------------------------
    # time-scale pinning
    # ------------------------------------------------------------------
    def pin_time_scale(self, lo: float | None = None, hi: float | None = None):
        """Freeze the :meth:`times01` mapping at the given (default current) span.

        Without a pin, ``times01``/``scale_time`` rescale against the *live*
        ``time_span`` — so every later-than-head arrival silently shifts the
        scaled timestamps of the whole history, perturbing the decay-kernel
        inputs a trained model was fitted on.  Pinning fixes ``(lo, hi)``
        once (events beyond ``hi`` map monotonically above 1.0) and survives
        :meth:`extend_in_place` / :meth:`compact` / :meth:`copy`; snapshots
        and splits keep the legacy behavior of scaling to their own span.
        Returns self.
        """
        if lo is None or hi is None:
            span = self.time_span
            lo = span[0] if lo is None else float(lo)
            hi = span[1] if hi is None else float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
            raise ValueError(f"invalid pinned time scale [{lo!r}, {hi!r}]")
        self._scale = (float(lo), float(hi))
        self._times01 = None
        return self

    @property
    def time_scale(self) -> tuple[float, float] | None:
        """The pinned ``times01`` span, or None when scaling tracks the data."""
        return self._scale

    def _scale_span(self) -> tuple[float, float]:
        """(lo, hi) the 01-scaling maps from: the pin, else the data span."""
        return self._scale if self._scale is not None else self.time_span

    def _build_incidence(self) -> None:
        """Per-node incidence lists sorted by time (CSR layout).

        Each edge contributes two incidence slots (one per endpoint).  A
        stable sort by owning node preserves the global time order inside
        every node's slice, so the whole index is built with vectorized
        NumPy ops — no per-edge Python loop.

        Index arrays narrow to ``int32`` whenever every value they hold
        (incidence offsets up to ``2 * num_edges``, node ids up to
        ``num_nodes``, edge ids up to ``num_edges``) fits — the overflow
        guard is :func:`repro.nn.dtypes.index_dtype_for`, the precision
        policy's shared index-width rule — halving the index memory of the
        CSR the batched walk engine gathers from.  Narrowing is exact: an
        ``int32`` id is the same id, so walks, queries and every float
        result are unchanged; graphs beyond ~10⁹ incidence slots keep
        ``int64``.
        """
        n, m = self._n, self._src.size
        idx = index_dtype_for(max(2 * m, n + 1))
        self._index_dtype = idx
        owner = np.empty(2 * m, dtype=idx)
        nbr = np.empty(2 * m, dtype=idx)
        owner[0::2] = self._src
        owner[1::2] = self._dst
        nbr[0::2] = self._dst
        nbr[1::2] = self._src
        eid = np.repeat(np.arange(m, dtype=idx), 2)
        order = np.argsort(owner, kind="stable")
        counts = np.bincount(owner, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._inc_offsets = offsets.astype(idx, copy=False)
        self._inc_nbr = nbr[order]
        self._inc_eid = eid[order]
        self._inc_time = self._time[self._inc_eid]
        self._degree = counts.astype(idx, copy=False)

    def _build_distinct(self) -> None:
        """Distinct-neighbor CSR: sorted unique neighbors with multiplicities."""
        n = self._n
        idx = self._index_dtype
        # (owner, neighbor) pairs encoded as owner * n + neighbor: one
        # integer sort puts them in lexicographic pair order.
        keys = np.repeat(np.arange(n, dtype=np.int64), self._degree)
        keys *= n
        keys += self._inc_nbr
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        if keys.size:
            first[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(first)
        s_owner, dnbr = np.divmod(keys[starts], n)
        dnbr = dnbr.astype(idx)
        mult = np.diff(np.append(starts, keys.size)).astype(np.float64)
        dcounts = np.bincount(s_owner, minlength=n)
        dindptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(dcounts, out=dindptr[1:])
        self._distinct = (dindptr.astype(idx, copy=False), dnbr, mult)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (ids are ``0..num_nodes-1``)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of temporal edge events, buffered arrivals included."""
        return self._src.size + self._pending_count

    @property
    def src(self) -> np.ndarray:
        """Edge sources, time-sorted (read-only view)."""
        self._ensure_compacted()
        return self._src

    @property
    def dst(self) -> np.ndarray:
        """Edge destinations, time-sorted (read-only view)."""
        self._ensure_compacted()
        return self._dst

    @property
    def time(self) -> np.ndarray:
        """Edge timestamps, non-decreasing (read-only view)."""
        self._ensure_compacted()
        return self._time

    @property
    def weight(self) -> np.ndarray:
        """Edge weights (read-only view)."""
        self._ensure_compacted()
        return self._weight

    @property
    def time_span(self) -> tuple[float, float]:
        """(earliest, latest) timestamp."""
        self._ensure_compacted()
        return float(self._time[0]), float(self._time[-1])

    @property
    def storage(self) -> GraphStorage:
        """The backend holding the base event columns (compacted view)."""
        self._ensure_compacted()
        return self._store

    @property
    def storage_backend(self) -> str:
        """Short backend label: ``"memory"``, ``"memmap"`` or ``"shared"``."""
        return self._store.backend

    @property
    def index_dtype(self) -> np.dtype:
        """Dtype of the derived index structures (CSR offsets, ids).

        ``int32`` when the id/offset space fits (see :meth:`_build_incidence`
        for the overflow guard), ``int64`` otherwise.  The walk engine sizes
        its node-id buffers with this, so narrowing propagates through walk
        batches automatically.
        """
        self._ensure_compacted()  # buffered growth may widen the id space
        return self._index_dtype

    @property
    def nbytes(self) -> int:
        """Memory footprint of the graph's arrays, in bytes.

        Counts the edge table (``src``/``dst``/``time``/``weight``) as the
        storage backend accounts it — resident arrays for the in-memory
        backend, *mapped columns only* for a memmap store (whose bytes are
        disk-backed and paged on demand) — plus the incidence CSR and every
        lazily built structure that has actually been materialized (distinct
        CSR, pair index, scaled times, incidence weights).  This is what the
        ``int32`` index narrowing shrinks — the figure is surfaced in
        ``repr`` so the effect is observable.
        """
        self._ensure_compacted()
        total = (
            self._store.nbytes
            + self._inc_offsets.nbytes
            + self._inc_nbr.nbytes
            + self._inc_eid.nbytes
            + self._inc_time.nbytes
            + self._degree.nbytes
        )
        if self._distinct is not None:
            total += sum(arr.nbytes for arr in self._distinct)
        for lazy in (self._pair_keys, self._times01, self._inc_weight):
            if lazy is not None:
                total += lazy.nbytes
        return total

    def degrees(self) -> np.ndarray:
        """Temporal degree of every node (# incident edge events)."""
        self._ensure_compacted()
        return self._degree.copy()

    def distinct_neighbor_counts(self) -> np.ndarray:
        """Number of distinct neighbors of every node (static degree)."""
        dindptr, _, _ = self.distinct_csr()
        return np.diff(dindptr)

    def times01(self) -> np.ndarray:
        """Edge timestamps rescaled monotonically to ``[0, 1]``.

        A constant-time graph maps everything to 0.  The scaling is cached.
        Under :meth:`pin_time_scale` the mapping uses the pinned span, so
        events past the pinned head scale monotonically above 1.
        """
        self._ensure_compacted()
        if self._times01 is None:
            lo, hi = self._scale_span()
            span = hi - lo
            if span == 0:
                self._times01 = np.zeros_like(self._time)
            else:
                self._times01 = (self._time - lo) / span
        return self._times01

    def scale_time(self, t: float) -> float:
        """Map one raw timestamp onto the :meth:`times01` scale."""
        lo, hi = self._scale_span()
        span = hi - lo
        if span == 0:
            return 0.0
        return (float(t) - lo) / span

    def scale_times(self, t) -> np.ndarray:
        """Vectorized :meth:`scale_time`: map an array of raw timestamps.

        Element-for-element identical to calling :meth:`scale_time` on each
        entry (same subtraction/division order), which the batched walk
        engine relies on for bitwise reproducibility.
        """
        t = np.asarray(t, dtype=np.float64)
        lo, hi = self._scale_span()
        span = hi - lo
        if span == 0:
            return np.zeros_like(t)
        return (t - lo) / span

    # ------------------------------------------------------------------
    # incidence queries
    # ------------------------------------------------------------------
    def incident(self, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All incident events of ``v`` as ``(neighbors, times, edge_ids)``.

        Arrays are time-sorted views; callers must not mutate them.
        """
        self._ensure_compacted()
        lo, hi = self._inc_offsets[v], self._inc_offsets[v + 1]
        return self._inc_nbr[lo:hi], self._inc_time[lo:hi], self._inc_eid[lo:hi]

    def incidence_csr(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat CSR view of the whole incidence index.

        Returns ``(indptr, neighbors, times, weights, edge_ids)`` where node
        ``v``'s incident events occupy the slice ``indptr[v]:indptr[v+1]`` of
        the four flat arrays, sorted by time.  This is the gather substrate of
        the batched walk engine: one fancy-indexing operation fetches the
        candidate sets of every walk in a batch.  All arrays are shared,
        read-only views — callers must not mutate them.
        """
        self._ensure_compacted()
        if self._inc_weight is None:
            self._inc_weight = self._weight[self._inc_eid]
        return (
            self._inc_offsets,
            self._inc_nbr,
            self._inc_time,
            self._inc_weight,
            self._inc_eid,
        )

    def distinct_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR of sorted distinct neighbors with event multiplicities.

        Returns ``(indptr, neighbors, multiplicity)``: node ``v``'s distinct
        neighbors, ascending, live in ``neighbors[indptr[v]:indptr[v+1]]``,
        and ``multiplicity`` counts the temporal events behind each distinct
        pair (the static edge weight node2vec uses).  Built lazily in one
        vectorized pass; arrays are shared, read-only views.
        """
        self._ensure_compacted()
        if self._distinct is None:
            self._build_distinct()
        return self._distinct

    def events_before(
        self, v: int, t: float, inclusive: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Incident events of ``v`` with ``time <= t`` (or ``< t``).

        Returns ``(neighbors, times, edge_ids)`` time-sorted.  This is the
        "historical interactions" query of Definition 2.
        """
        self._ensure_compacted()
        lo, hi = self._inc_offsets[v], self._inc_offsets[v + 1]
        side = "right" if inclusive else "left"
        cut = lo + np.searchsorted(self._inc_time[lo:hi], t, side=side)
        return self._inc_nbr[lo:cut], self._inc_time[lo:cut], self._inc_eid[lo:cut]

    def neighbors(self, v: int) -> np.ndarray:
        """Distinct neighbors of ``v`` over the whole timeline (sorted view)."""
        dindptr, dnbr, _ = self.distinct_csr()
        return dnbr[dindptr[v] : dindptr[v + 1]]

    def last_event_time(self, v: int) -> float | None:
        """Timestamp of the most recent interaction of ``v`` (None if isolated)."""
        self._ensure_compacted()
        lo, hi = self._inc_offsets[v], self._inc_offsets[v + 1]
        if hi == lo:
            return None
        return float(self._inc_time[hi - 1])

    def last_event_times(self, nodes=None) -> np.ndarray:
        """Vectorized :meth:`last_event_time` over ``nodes`` (all when None).

        Returns a float array aligned with ``nodes``; isolated nodes get
        ``NaN`` (the array encoding of the scalar method's ``None``).  One
        gather over the incidence index instead of a per-node Python loop.
        """
        self._ensure_compacted()
        if nodes is None:
            nodes = np.arange(self._n, dtype=np.int64)
        else:
            nodes = np.asarray(nodes, dtype=np.int64)
        lo = self._inc_offsets[nodes]
        hi = self._inc_offsets[nodes + 1]
        out = np.full(nodes.shape, np.nan, dtype=np.float64)
        has = hi > lo
        out[has] = self._inc_time[hi[has] - 1]
        return out

    def _pair_index(self) -> np.ndarray:
        """Sorted unique canonical pair keys (``min * num_nodes + max``)."""
        self._ensure_compacted()
        if self._pair_keys is None:
            lo = np.minimum(self._src, self._dst)
            hi = np.maximum(self._src, self._dst)
            self._pair_keys = np.unique(lo * np.int64(self._n) + hi)
        return self._pair_keys

    def has_edge(self, u: int, v: int) -> bool:
        """Whether any event ever connected ``u`` and ``v``."""
        keys = self._pair_index()
        a, b = (u, v) if u < v else (v, u)
        key = a * self._n + b
        idx = int(np.searchsorted(keys, key))
        return idx < keys.size and keys[idx] == key

    def has_edges(self, u, v) -> np.ndarray:
        """Vectorized :meth:`has_edge` over parallel node arrays.

        Returns a boolean array: ``out[i]`` is whether any event ever
        connected ``u[i]`` and ``v[i]``.  Membership is one ``searchsorted``
        against the shared sorted pair-key index, so checking a batch of
        pairs costs O(batch × log distinct-pairs) instead of a per-pair
        Python loop.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        keys = self._pair_index()
        key = np.minimum(u, v) * np.int64(self._n) + np.maximum(u, v)
        idx = np.searchsorted(keys, key)
        inside = idx < keys.size
        out = np.zeros(u.shape, dtype=bool)
        out[inside] = keys[idx[inside]] == key[inside]
        return out

    # ------------------------------------------------------------------
    # temporal slicing
    # ------------------------------------------------------------------
    def edges_until(self, t: float, inclusive: bool = True) -> np.ndarray:
        """Edge-id array of all events with ``time <= t`` (or ``< t``)."""
        self._ensure_compacted()
        side = "right" if inclusive else "left"
        cut = np.searchsorted(self._time, t, side=side)
        return np.arange(cut, dtype=np.int64)

    def snapshot(self, t: float, inclusive: bool = True) -> "TemporalGraph":
        """The network as of time ``t`` (same node-id space)."""
        ids = self.edges_until(t, inclusive=inclusive)
        if ids.size == 0:
            raise ValueError(f"snapshot at t={t} would contain no edges")
        return TemporalGraph(
            self._n,
            self._src[ids],
            self._dst[ids],
            self._time[ids],
            self._weight[ids],
        )

    def split_recent(self, fraction: float) -> tuple["TemporalGraph", np.ndarray]:
        """Hold out the most recent ``fraction`` of edges (link-prediction protocol).

        Returns ``(train_graph, held_out_edge_ids)`` where the train graph
        keeps the same node-id space.  Ties in time are broken by edge order,
        matching "remove 20% of the most recent edges" in Section V.E.
        """
        check_fraction("fraction", fraction)
        self._ensure_compacted()
        m = self.num_edges
        n_hold = int(round(m * fraction))
        n_hold = min(max(n_hold, 1), m - 1)
        keep = np.arange(m - n_hold, dtype=np.int64)
        hold = np.arange(m - n_hold, m, dtype=np.int64)
        train = TemporalGraph(
            self._n,
            self._src[keep],
            self._dst[keep],
            self._time[keep],
            self._weight[keep],
        )
        return train, hold

    def edge_tuples(self, edge_ids=None) -> list[tuple[int, int, float]]:
        """Materialize ``(u, v, t)`` tuples for the given edge ids (all if None)."""
        self._ensure_compacted()
        if edge_ids is None:
            edge_ids = range(self.num_edges)
        return [
            (int(self._src[e]), int(self._dst[e]), float(self._time[e]))
            for e in edge_ids
        ]

    def iter_chronological(self):
        """Yield :class:`EdgeEvent` in non-decreasing time order."""
        self._ensure_compacted()
        for e in range(self.num_edges):
            yield EdgeEvent(
                u=int(self._src[e]),
                v=int(self._dst[e]),
                time=float(self._time[e]),
                weight=float(self._weight[e]),
                edge_id=e,
            )

    def __repr__(self) -> str:
        lo, hi = self.time_span
        return (
            f"TemporalGraph(nodes={self._n}, events={self.num_edges}, "
            f"time=[{lo:g}, {hi:g}], mem={_format_bytes(self.nbytes)})"
        )


def _format_bytes(num_bytes: int) -> str:
    """Human-readable byte count (``1.5KB``, ``3.2MB``, ...)."""
    size = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1024.0 or unit == "GB":
            return f"{size:.1f}{unit}" if unit != "B" else f"{int(size)}B"
        size /= 1024.0
    return f"{size:.1f}GB"
