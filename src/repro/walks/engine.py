"""Vectorized batched walk engine.

The per-node walkers in this package (:class:`~repro.walks.temporal.TemporalWalker`,
:class:`~repro.walks.static.UniformWalker`, :class:`~repro.walks.static.Node2VecWalker`,
:class:`~repro.walks.ctdne.CTDNEWalker`) advance one walk at a time, paying
Python-interpreter overhead for every hop.  :class:`BatchedWalkEngine` instead
advances *all* walks of a batch in lockstep: each step is a handful of NumPy
operations over flat CSR arrays from
:meth:`~repro.graph.temporal_graph.TemporalGraph.incidence_csr`, regardless of
the batch size —

- the candidate events of every active walk are fetched with one ragged
  gather over the flat incidence arrays;
- the historical cut (``time <= t_last``) is a vectorized per-segment binary
  search, ``O(log deg)`` lockstep iterations for the whole batch;
- Eq. 1 decay kernels and Eq. 2 node2vec biases are evaluated element-wise on
  the flattened candidate set;
- transitions are sampled with one cumulative-sum + ``searchsorted`` (temporal
  walks) or one :class:`~repro.utils.alias.PackedAliasTables` draw (node2vec),
  consuming the shared RNG stream in walk order.

**Batch-size-1 contract.** With a batch of one walk, the engine consumes the
RNG stream draw-for-draw like the per-node reference implementations
(``walk_sequential`` on each walker), so the produced walks are *bitwise
identical* under the same seed.  ``tests/walks/test_engine.py`` pins this
property for all four walk families.

**Array-native batching.** ``temporal_walk_batch`` / ``uniform_walk_batch``
skip ``Walk`` materialization entirely: the same lockstep loops (same RNG
draws) pad their raw buffers straight into aggregator-ready
:class:`~repro.walks.base.WalkBatch` arrays, bitwise-equal to running the
``Walk`` path through ``batch_walks``.  This is the training fast path of
the fused aggregation pipeline (see docs/architecture.md).
"""

from __future__ import annotations

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.utils.alias import PackedAliasTables, build_alias_tables
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive
from repro.walks.base import Walk, WalkBatch

_I64 = np.int64


def _ragged_gather(starts: np.ndarray, stops: np.ndarray):
    """Flat indices covering ``[starts[i], stops[i])`` for every segment.

    Returns ``(flat, lens, offsets)`` where ``flat`` concatenates the ranges,
    ``lens`` are the per-segment lengths and ``offsets`` the CSR boundaries of
    the concatenation (``offsets[i]:offsets[i+1]`` is segment ``i``).
    """
    lens = stops - starts
    offsets = np.zeros(lens.size + 1, dtype=_I64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=_I64), lens, offsets
    flat = np.repeat(starts - offsets[:-1], lens) + np.arange(total, dtype=_I64)
    return flat, lens, offsets


class BatchedWalkEngine:
    """Lockstep walk generation for batches of start nodes.

    Parameters
    ----------
    graph:
        The temporal network.
    p, q:
        node2vec return / in-out parameters shared by the temporal (Eq. 2)
        and node2vec walk families.
    decay:
        Eq. 1 exponential time-decay rate on the [0, 1] time scale.
    real_dtype:
        Floating dtype of the :class:`WalkBatch` arrays the array-native fast
        path emits (``valid``/``time_sums``) — the precision policy's real
        dtype.  Node-id buffers follow the *graph's* ``index_dtype`` (int32
        on graphs whose id space fits), so fast-mode walk batches shrink to
        about half the reference mode's bytes.  Timestamps and sampling
        weights always stay ``float64`` internally: walk *selection* is
        precision-independent, only the emitted batch narrows.
    candidate_cap:
        Cap on a node's per-hop candidate set in the temporal family; 0
        (default) keeps the exact, uncapped behavior bitwise-unchanged.
        With ``cap > 0``, a hop out of a hub gathers only that node's
        ``cap`` *most recent* historical events instead of its entire
        history, turning the per-hop cost from O(degree) into O(cap).

        **Sampling note.**  This truncates Eq. 1's candidate distribution:
        the dropped events are the *oldest* ones, whose weights
        ``w · exp(-decay · dt)`` are the smallest under the exponential
        decay, so for any ``decay > 0`` the removed probability mass decays
        exponentially in the hub's history length and the capped
        distribution is a close renormalization of the exact one.  With
        ``decay = 0`` (uniform-in-history) the cap changes semantics to
        "the ``cap`` most recent events" — choose it deliberately there.
        Walks on capped engines are *not* bitwise-comparable to uncapped
        ones on graphs containing nodes above the cap.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        p: float = 1.0,
        q: float = 1.0,
        decay: float = 1.0,
        real_dtype=np.float64,
        candidate_cap: int = 0,
    ) -> None:
        check_positive("p", p)
        check_positive("q", q)
        check_non_negative("decay", decay)
        check_non_negative("candidate_cap", candidate_cap)
        self.graph = graph
        self._real = np.dtype(real_dtype)
        self._idx = graph.index_dtype
        self.p = float(p)
        self.q = float(q)
        self.decay = float(decay)
        self.candidate_cap = int(candidate_cap)
        indptr, nbr, times, weights, eids = graph.incidence_csr()
        self._indptr = indptr
        self._inc_nbr = nbr
        self._inc_time = times
        self._inc_weight = weights
        self._inc_t01 = graph.times01()[eids]
        dindptr, dnbr, dmult = graph.distinct_csr()
        self._dindptr = dindptr
        self._dnbr = dnbr
        self._dmult = dmult
        self._ddeg = np.diff(dindptr)
        # Encoded (owner, neighbor) pairs of the distinct CSR.  The CSR is
        # sorted by owner then neighbor, so this flat key array is globally
        # sorted and adjacency tests become one searchsorted for any batch.
        owners = np.repeat(np.arange(graph.num_nodes, dtype=_I64), self._ddeg)
        self._pair_keys = owners * graph.num_nodes + dnbr
        self._first_tables: PackedAliasTables | None = None
        self._pair_cache: dict = {}

    # ------------------------------------------------------------------
    # vectorized binary searches over the flat CSR arrays
    # ------------------------------------------------------------------
    def _search_time(self, lo, hi, t, inclusive) -> np.ndarray:
        """Per-segment ``searchsorted`` on the incidence time column.

        For every walk ``i`` returns the first index in ``[lo[i], hi[i])``
        whose event time exceeds ``t[i]`` (``inclusive``) or reaches it
        (``not inclusive``) — i.e. ``side='right'`` / ``side='left'`` of
        :func:`numpy.searchsorted`, batched over segments.
        """
        lo = lo.astype(_I64, copy=True)
        hi = hi.astype(_I64, copy=True)
        act = np.flatnonzero(lo < hi)
        while act.size:
            mid = (lo[act] + hi[act]) >> 1
            tm = self._inc_time[mid]
            right = np.where(inclusive[act], tm <= t[act], tm < t[act])
            lo[act[right]] = mid[right] + 1
            hi[act[~right]] = mid[~right]
            act = act[lo[act] < hi[act]]
        return lo

    def _adjacent(self, prev, cand) -> np.ndarray:
        """Whether ``cand[i]`` is a distinct neighbor of ``prev[i]`` (vectorized).

        One binary search over the globally sorted encoded pair keys answers
        the whole batch.
        """
        # Encoded keys must be computed in int64: narrowed int32 ids would
        # otherwise overflow at num_nodes**2 under NumPy's value-preserving
        # promotion rules.
        keys = prev.astype(_I64, copy=False) * np.int64(self.graph.num_nodes) + cand
        pos = np.searchsorted(self._pair_keys, keys)
        pos = np.minimum(pos, self._pair_keys.size - 1)
        return self._pair_keys[pos] == keys

    # ------------------------------------------------------------------
    # walk materialization
    # ------------------------------------------------------------------
    @staticmethod
    def _emit(nodes_buf, times_buf, lengths, with_times: bool) -> list[Walk]:
        walks = []
        for i in range(nodes_buf.shape[0]):
            n = int(lengths[i])
            nodes = nodes_buf[i, :n].tolist()
            if with_times:
                walks.append(
                    Walk(nodes=nodes, edge_times=times_buf[i, : n - 1].tolist())
                )
            else:
                walks.append(Walk(nodes=nodes))
        return walks

    # ------------------------------------------------------------------
    # temporal walks (EHNA, Section IV.A)
    # ------------------------------------------------------------------
    def temporal(
        self, starts, anchors, length: int, rng=None, include_context: bool = False
    ) -> list[Walk]:
        """Advance one historical walk per ``(starts[i], anchors[i])`` pair.

        The lockstep equivalent of ``TemporalWalker.walk_sequential`` —
        strictly-historical first hop (unless ``include_context``),
        non-increasing edge times, Eq. 1 decay kernel and Eq. 2 bias.  Walks
        terminate individually when they run out of relevant history; the
        survivors keep stepping.
        """
        return self._emit(
            *self._temporal_raw(starts, anchors, length, rng, include_context),
            with_times=True,
        )

    def _temporal_raw(
        self, starts, anchors, length: int, rng=None, include_context: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The temporal lockstep loop on raw buffers.

        Returns ``(nodes_buf, times_buf, lengths)``; entries beyond each
        walk's length are uninitialized.  Shared by the ``Walk``-emitting
        path and the array-native :meth:`temporal_walk_batch` fast path, so
        both consume the RNG stream identically.
        """
        check_positive("length", length)
        rng = ensure_rng(rng)
        starts = np.asarray(starts, dtype=_I64)
        anchors = np.asarray(anchors, dtype=np.float64)
        b = starts.size
        nodes_buf = np.empty((b, length + 1), dtype=self._idx)
        times_buf = np.empty((b, max(length, 1)), dtype=np.float64)
        nodes_buf[:, 0] = starts
        lengths = np.ones(b, dtype=_I64)

        t_ctx01 = self.graph.scale_times(anchors)
        cur = starts.copy()
        prev = np.full(b, -1, dtype=_I64)
        t_last = anchors.copy()
        inclusive = np.full(b, bool(include_context), dtype=bool)
        active = np.arange(b, dtype=_I64)

        for _ in range(length):
            if active.size == 0:
                break
            c = cur[active]
            lo = self._indptr[c]
            cut = self._search_time(lo, self._indptr[c + 1], t_last[active], inclusive[active])
            has = cut > lo
            active = active[has]
            if active.size == 0:
                break
            start = lo[has]
            if self.candidate_cap:
                # Hub windowing: gather only the ``candidate_cap`` most
                # recent historical events instead of a hub's whole history.
                # The incidence rows are time-sorted, so the window is the
                # tail of ``[lo, cut)`` — the events Eq. 1's exponential
                # decay weights highest; the truncated head carries the
                # smallest weights, so the sampling bias is tiny (see the
                # class docstring's sampling note).
                start = np.maximum(start, cut[has] - self.candidate_cap)
            flat, lens, offs = _ragged_gather(start, cut[has])
            cand_nbr = self._inc_nbr[flat]
            walk_of = np.repeat(np.arange(active.size, dtype=_I64), lens)

            # Eq. 1 kernel on the [0, 1] time scale.
            dt = t_ctx01[active][walk_of] - self._inc_t01[flat]
            wts = self._inc_weight[flat] * np.exp(-self.decay * dt)

            # Eq. 2 search bias, for walks that already have a previous node.
            has_prev = prev[active][walk_of] >= 0
            if has_prev.any():
                pv = prev[active][walk_of][has_prev]
                cd = cand_nbr[has_prev]
                beta = np.where(self._adjacent(pv, cd), 1.0, 1.0 / self.q)
                beta[cd == pv] = 1.0 / self.p
                wts[has_prev] = wts[has_prev] * beta

            # Per-segment CDF sampling: the global cumulative sum is
            # monotone, so one searchsorted serves every walk.  Segment
            # totals need care: differencing the global cumsum cancels
            # catastrophically when one walk's weights are tiny next to the
            # accumulated prefix of its batch neighbors, spuriously
            # terminating it — so multi-segment batches total each segment
            # independently with reduceat.  A lone active walk keeps the
            # cumsum total (the subtraction of prefix 0.0 is exact), which
            # makes every batch-size-1 call reduce to the reference per-node
            # computation bit for bit — reduceat's pairwise summation would
            # not.  Within-segment picks read the global cumsum either way;
            # quantization there only biases *which* valid candidate wins in
            # extreme (>15 orders of magnitude) mixed batches.
            cdf = np.cumsum(wts)
            seg_lo = offs[:-1]
            seg_hi = offs[1:]
            prefix = np.where(seg_lo > 0, cdf[np.maximum(seg_lo - 1, 0)], 0.0)
            if seg_lo.size == 1:
                total = cdf[seg_hi - 1]
            else:
                total = np.add.reduceat(wts, seg_lo)
            ok = (total > 0) & np.isfinite(total)
            active = active[ok]
            if active.size == 0:
                break
            keep = np.flatnonzero(ok)
            u = rng.random(active.size)
            target = prefix[keep] + u * total[keep]
            pick = np.searchsorted(cdf, target, side="right")
            pick = np.clip(pick, seg_lo[keep], seg_hi[keep] - 1)

            nxt = cand_nbr[pick]
            etime = self._inc_time[flat[pick]]
            prev[active] = cur[active]
            cur[active] = nxt
            nodes_buf[active, lengths[active]] = nxt
            times_buf[active, lengths[active] - 1] = etime
            lengths[active] += 1
            t_last[active] = etime
            inclusive[active] = True  # later hops: non-increasing times
        return nodes_buf, times_buf, lengths

    # ------------------------------------------------------------------
    # uniform walks (DeepWalk / GraphSAGE-style fallback)
    # ------------------------------------------------------------------
    def uniform(self, starts, length: int, rng=None) -> list[Walk]:
        """First-order uniform walks over distinct neighbors, in lockstep."""
        nodes_buf, _, lengths = self._uniform_raw(starts, length, rng)
        return self._emit(nodes_buf, None, lengths, with_times=False)

    def _uniform_raw(
        self, starts, length: int, rng=None
    ) -> tuple[np.ndarray, None, np.ndarray]:
        """The uniform lockstep loop on raw buffers (see :meth:`_temporal_raw`)."""
        check_positive("length", length)
        rng = ensure_rng(rng)
        starts = np.asarray(starts, dtype=_I64)
        b = starts.size
        nodes_buf = np.empty((b, length + 1), dtype=self._idx)
        nodes_buf[:, 0] = starts
        lengths = np.ones(b, dtype=_I64)
        cur = starts.copy()
        active = np.arange(b, dtype=_I64)

        for _ in range(length):
            if active.size == 0:
                break
            deg = self._ddeg[cur[active]]
            active = active[deg > 0]
            if active.size == 0:
                break
            c = cur[active]
            pick = rng.integers(0, self._ddeg[c])
            nxt = self._dnbr[self._dindptr[c] + pick]
            cur[active] = nxt
            nodes_buf[active, lengths[active]] = nxt
            lengths[active] += 1
        return nodes_buf, None, lengths

    # ------------------------------------------------------------------
    # array-native walk batching (the aggregator fast path)
    # ------------------------------------------------------------------
    def _pack(
        self,
        nodes_buf: np.ndarray,
        times_buf: np.ndarray | None,
        lengths: np.ndarray,
        k: int,
        chronological: bool,
    ) -> WalkBatch:
        """Pad raw lockstep buffers into a :class:`WalkBatch`, vectorized.

        Bitwise-equivalent to emitting ``Walk`` objects and running them
        through ``batch_walks``: same [0, 1] time scaling, same per-position
        time-sum addition order (edge ``i-1`` accumulated before edge ``i``),
        same in-place reversal for ``chronological`` batches, same zero
        padding.
        """
        n_rows = nodes_buf.shape[0]
        max_len = int(lengths.max(initial=0))
        pos = np.arange(max_len, dtype=_I64)
        valid = pos < lengths[:, None]  # (W, T) bool
        ids = np.where(valid, nodes_buf[:, :max_len], 0)
        # Time-sum accumulation stays float64 (bitwise-equal to the Walk
        # reference for the default policy); only the emitted array narrows.
        sums = np.zeros((n_rows, max_len), dtype=np.float64)
        if times_buf is not None and max_len > 1:
            edge_valid = pos[: max_len - 1] < (lengths - 1)[:, None]
            scaled = np.zeros((n_rows, max_len - 1), dtype=np.float64)
            raw = times_buf[:, : max_len - 1]
            scaled[edge_valid] = self.graph.scale_times(raw[edge_valid])
            # sums[i] = scaled[i-1] + scaled[i], left edge accumulated first
            # (the addition order of Walk.node_time_sums).
            sums[:, 1:] = scaled
            sums[:, : max_len - 1] += scaled
        if chronological:
            idx = np.where(valid, lengths[:, None] - 1 - pos, pos)
            rows = np.arange(n_rows, dtype=_I64)[:, None]
            ids = ids[rows, idx]
            sums = sums[rows, idx]
        return WalkBatch(
            ids=ids,
            valid=valid.astype(self._real),
            time_sums=sums.astype(self._real, copy=False),
            k=k,
        )

    def temporal_walk_batch(
        self,
        nodes,
        anchors,
        num_walks: int,
        length: int,
        rng=None,
        include_context: bool = False,
        chronological: bool = True,
    ) -> WalkBatch:
        """``num_walks`` temporal walks per ``(node, anchor)`` pair as arrays.

        The array-native fast path of :meth:`temporal_walk_sets` +
        ``batch_walks``: the same lockstep loop fills the same raw buffers
        with the same RNG draws, but the result is padded straight into a
        :class:`WalkBatch` — no per-walk ``Walk`` objects, no Python
        re-padding loop.
        """
        check_positive("num_walks", num_walks)
        rng = ensure_rng(rng)
        nodes = np.asarray(nodes, dtype=_I64)
        anchors = np.asarray(anchors, dtype=np.float64)
        starts = np.repeat(nodes, num_walks)
        anch = np.repeat(anchors, num_walks)
        bufs = self._temporal_raw(starts, anch, length, rng, include_context)
        return self._pack(*bufs, k=num_walks, chronological=chronological)

    def uniform_walk_batch(
        self,
        nodes,
        num_walks: int,
        length: int,
        rng=None,
        chronological: bool = True,
    ) -> WalkBatch:
        """``num_walks`` uniform walks per node as a :class:`WalkBatch`.

        Array-native fast path of :meth:`uniform_walk_sets` (see
        :meth:`temporal_walk_batch`); static walks carry no edge times, so
        ``time_sums`` is all zeros.
        """
        check_positive("num_walks", num_walks)
        rng = ensure_rng(rng)
        nodes = np.asarray(nodes, dtype=_I64)
        starts = np.repeat(nodes, num_walks)
        bufs = self._uniform_raw(starts, length, rng)
        return self._pack(*bufs, k=num_walks, chronological=chronological)

    # ------------------------------------------------------------------
    # node2vec walks (second-order, alias-sampled)
    # ------------------------------------------------------------------
    def _first_order_tables(self) -> PackedAliasTables:
        """Alias tables of every node's multiplicity-weighted neighbor pick."""
        if self._first_tables is None:
            self._first_tables = PackedAliasTables(self._dmult, self._dindptr)
        return self._first_tables

    def pair_table(self, prev: int, cur: int):
        """The ``(prev -> cur)`` second-order transition table (memoized).

        Returns ``(prob, alias)`` arrays over ``cur``'s distinct neighbors,
        weighted by Eq. 2 bias times event multiplicity.
        """
        key = (prev, cur)
        entry = self._pair_cache.get(key)
        if entry is None:
            lo, hi = self._dindptr[cur], self._dindptr[cur + 1]
            nbrs = self._dnbr[lo:hi]
            adj = self._adjacent(np.full(nbrs.size, prev, dtype=_I64), nbrs)
            bias = np.where(adj, 1.0, 1.0 / self.q)
            bias[nbrs == prev] = 1.0 / self.p
            weights = bias * self._dmult[lo:hi]
            entry = build_alias_tables(weights, np.array([0, nbrs.size]))
            self._pair_cache[key] = entry
        return entry

    def node2vec(self, starts, length: int, rng=None) -> list[Walk]:
        """Second-order node2vec walks in lockstep.

        The first hop samples every walk's packed first-order table with one
        vectorized draw; later hops sample the memoized ``(prev, cur)`` alias
        tables with one bounded-integer batch plus one coin batch per step.
        """
        check_positive("length", length)
        rng = ensure_rng(rng)
        starts = np.asarray(starts, dtype=_I64)
        b = starts.size
        nodes_buf = np.empty((b, length + 1), dtype=self._idx)
        nodes_buf[:, 0] = starts
        lengths = np.ones(b, dtype=_I64)
        cur = starts.copy()
        prev = np.full(b, -1, dtype=_I64)
        active = np.arange(b, dtype=_I64)

        # First hop: multiplicity-weighted neighbor pick.
        active = active[self._ddeg[starts] > 0]
        if active.size:
            local = self._first_order_tables().sample(starts[active], rng)
            nxt = self._dnbr[self._dindptr[starts[active]] + local]
            prev[active] = starts[active]
            cur[active] = nxt
            nodes_buf[active, 1] = nxt
            lengths[active] = 2

        for _ in range(length - 1):
            if active.size == 0:
                break
            deg = self._ddeg[cur[active]]
            active = active[deg > 0]
            if active.size == 0:
                break
            c = cur[active]
            tables = [self.pair_table(int(p_), int(c_)) for p_, c_ in zip(prev[active], c)]
            idx = rng.integers(0, self._ddeg[c])
            coin = rng.random(active.size)
            local = np.empty(active.size, dtype=_I64)
            for j, (prob, alias) in enumerate(tables):
                i = int(idx[j])
                local[j] = i if coin[j] < prob[i] else int(alias[i])
            nxt = self._dnbr[self._dindptr[c] + local]
            prev[active] = c
            cur[active] = nxt
            nodes_buf[active, lengths[active]] = nxt
            lengths[active] += 1
        return self._emit(nodes_buf, None, lengths, with_times=False)

    # ------------------------------------------------------------------
    # CTDNE walks (forward-in-time, uniform)
    # ------------------------------------------------------------------
    def ctdne(self, edge_ids, length: int, rng=None) -> list[Walk]:
        """Time-respecting forward walks from the given start edges.

        Each walk orients its start edge with one coin flip, then repeatedly
        picks uniformly among the strictly-newer incident events — the
        lockstep version of ``CTDNEWalker.walk_sequential``.
        """
        check_positive("length", length)
        rng = ensure_rng(rng)
        edge_ids = np.asarray(edge_ids, dtype=_I64)
        graph = self.graph
        b = edge_ids.size
        u = graph.src[edge_ids].astype(_I64)
        v = graph.dst[edge_ids].astype(_I64)
        t = graph.time[edge_ids].astype(np.float64)
        flip = rng.random(b) < 0.5
        first = np.where(flip, v, u)
        second = np.where(flip, u, v)

        nodes_buf = np.empty((b, length + 1), dtype=self._idx)
        times_buf = np.empty((b, max(length, 1)), dtype=np.float64)
        nodes_buf[:, 0] = first
        nodes_buf[:, 1] = second
        times_buf[:, 0] = t
        lengths = np.full(b, 2, dtype=_I64)
        cur = second.copy()
        t_cur = t.copy()
        active = np.arange(b, dtype=_I64)
        strictly_after = np.ones(b, dtype=bool)  # searchsorted side='right'

        for _ in range(length - 1):
            if active.size == 0:
                break
            c = cur[active]
            hi = self._indptr[c + 1]
            cut = self._search_time(
                self._indptr[c], hi, t_cur[active], strictly_after[active]
            )
            count = hi - cut
            has = count > 0
            active = active[has]
            if active.size == 0:
                break
            cut = cut[has]
            pick = rng.integers(0, count[has])
            sel = cut + pick
            nxt = self._inc_nbr[sel]
            etime = self._inc_time[sel]
            cur[active] = nxt
            t_cur[active] = etime
            nodes_buf[active, lengths[active]] = nxt
            times_buf[active, lengths[active] - 1] = etime
            lengths[active] += 1
        return self._emit(nodes_buf, times_buf, lengths, with_times=True)

    # ------------------------------------------------------------------
    # walk-set APIs (the reference path of EHNA's aggregation)
    # ------------------------------------------------------------------
    def temporal_walk_sets(
        self,
        nodes,
        anchors,
        num_walks: int,
        length: int,
        rng=None,
        include_context: bool = False,
    ) -> list[list[Walk]]:
        """``num_walks`` temporal walks per ``(node, anchor)`` pair, advanced
        together in one lockstep batch of ``len(nodes) * num_walks`` walks."""
        check_positive("num_walks", num_walks)
        rng = ensure_rng(rng)
        starts = np.repeat(np.asarray(nodes, dtype=_I64), num_walks)
        anchors = np.repeat(np.asarray(anchors, dtype=np.float64), num_walks)
        walks = self.temporal(starts, anchors, length, rng, include_context)
        return [walks[i : i + num_walks] for i in range(0, len(walks), num_walks)]

    def uniform_walk_sets(
        self, nodes, num_walks: int, length: int, rng=None
    ) -> list[list[Walk]]:
        """``num_walks`` uniform walks per node, advanced in one lockstep batch."""
        check_positive("num_walks", num_walks)
        rng = ensure_rng(rng)
        starts = np.repeat(np.asarray(nodes, dtype=_I64), num_walks)
        walks = self.uniform(starts, length, rng)
        return [walks[i : i + num_walks] for i in range(0, len(walks), num_walks)]
