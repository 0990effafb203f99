"""Vectorized batched walk engine: the one sampler of every walk family.

:class:`BatchedWalkEngine` advances *all* walks of a batch in lockstep: each
step is a handful of NumPy operations over flat CSR arrays from
:meth:`~repro.graph.temporal_graph.TemporalGraph.incidence_csr`, regardless
of the batch size —

- the historical cut (``time <= t_last``) is a vectorized per-segment binary
  search, ``O(log deg)`` lockstep iterations for the whole batch;
- temporal hops sample Eq. 1 exactly in ``O(log deg)`` from a row-local log
  prefix-sum index built once per engine (no candidate gather), and apply
  Eq. 2's node2vec bias by rejection — see :meth:`BatchedWalkEngine._temporal_raw`;
- node2vec hops draw from :class:`~repro.utils.alias.PackedAliasTables`,
  consuming the shared RNG stream in walk order.

**Batch-size-1 contract.** With a batch of one walk, the engine consumes the
RNG stream draw-for-draw like a per-node loop that walks one hop at a time,
so the produced walks are *bitwise identical* under the same seed.  Those
loops live with the tests (``tests/oracles/walks.py``), and
``tests/walks/test_engine.py`` pins the property for all four walk families.

**Array-native batching.** ``temporal_walk_batch`` / ``uniform_walk_batch``
skip ``Walk`` materialization entirely: the same lockstep loops (same RNG
draws) pad their raw buffers straight into aggregator-ready
:class:`~repro.walks.base.WalkBatch` arrays, bitwise-equal to padding the
``Walk`` objects with a Python loop (the ``batch_walks`` test oracle).
EHNA's aggregation pipeline takes only this route (see
docs/architecture.md).
"""

from __future__ import annotations

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.utils.alias import PackedAliasTables, build_alias_tables
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive
from repro.walks.base import Walk, WalkBatch

_I64 = np.int64

#: Proposals every pending walk draws per rejection round of a biased hop.
PROPOSALS = 8

#: A row whose Eq. 1 terms span more than ``exp(-_LINEAR_SPAN)`` would
#: underflow a linear prefix sum, so it is accumulated in log space instead.
_LINEAR_SPAN = 700.0

#: Index build: rows up to this degree are grouped by exact degree (no
#: padding), longer ones by the next power of two; a block holds at most
#: ``_BUILD_BLOCK`` cells (bounds the build's scratch memory).
_EXACT_WIDTH = 64
_BUILD_BLOCK = 1 << 17


def eq1_log_terms(weights, times01, decay: float) -> np.ndarray:
    """``log(w · exp(decay · t01))`` per event.

    Eq. 1's weight ``w · exp(-decay · (t_ctx - t))`` is this term times
    ``exp(-decay · t_ctx)``, a factor shared by every candidate of a hop, so
    the term alone fixes the hop's law for any anchor.  Zero weights give
    ``-inf`` (an event that is never picked).
    """
    with np.errstate(divide="ignore"):
        return np.log(weights) + decay * times01


def log_prefix_rows(terms: np.ndarray) -> np.ndarray:
    """Row-local ``log(cumsum(exp(terms)))`` of a ``(rows, width)`` block.

    Each row is rebased to its largest term and summed in linear space,
    ``top + log(cumsum(exp(terms - top)))``, which cannot overflow.  A row
    with a term below ``top - _LINEAR_SPAN`` (a zero weight included) would
    underflow there, so it is accumulated with ``logaddexp`` instead.  Rows
    may be padded on the right with NaN, which leaves their prefix alone; a
    row without mass stays ``-inf``.  Every row is computed on its own, so
    one row passed as a ``(1, width)`` block gives the same bits as inside a
    larger block.
    """
    top = np.fmax.reduce(terms, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = terms - top
        wide = (out < -_LINEAR_SPAN).any(axis=1)
        np.exp(out, out=out)
        np.cumsum(out, axis=1, out=out)
        np.log(out, out=out)
        out += top
        if wide.any():
            out[wide] = np.logaddexp.accumulate(terms[wide], axis=1)
    out[top[:, 0] == -np.inf] = -np.inf
    return out


def _sampling_index(indptr, times, weights, scale_times, decay: float):
    """The temporal sampler's index over an incidence CSR.

    ``indptr``/``times``/``weights`` are the CSR arrays of
    :meth:`~repro.graph.temporal_graph.TemporalGraph.incidence_csr` and
    ``scale_times`` the graph's map onto the [0, 1] time scale.

    Returns ``(log_prefix, locator)``:

    - ``log_prefix[k]`` is ``log`` of the row-local prefix sum of the Eq. 1
      terms (:func:`eq1_log_terms`) from its row's start through ``k`` —
      non-decreasing within every row;
    - ``locator[k] = 2·row + exp(log_prefix[k] - log_prefix[row_end])`` lies
      in ``[2·row, 2·row + 1]`` and is globally non-decreasing, so one
      ``searchsorted`` places proposals of any rows at once.  It is only a
      hint: proposals are checked against ``log_prefix``.

    Rows are grouped by width — their degree up to :data:`_EXACT_WIDTH`,
    the next power of two above — and built in blocks of at most
    :data:`_BUILD_BLOCK` cells with :func:`log_prefix_rows`.
    """
    nnz = int(indptr[-1])
    # The terms are computed in place first; every block reads its own rows'
    # terms and overwrites them with prefixes.  Padding cells read the NaN
    # in slot nnz and write to slot nnz + 1.
    log_prefix = np.empty(nnz + 2, dtype=np.float64)
    for s in range(0, nnz, _BUILD_BLOCK):
        e = min(s + _BUILD_BLOCK, nnz)
        log_prefix[s:e] = eq1_log_terms(weights[s:e], scale_times(times[s:e]), decay)
    log_prefix[nnz] = np.nan
    locator = np.empty(nnz + 2, dtype=np.float64)
    deg = np.diff(indptr).astype(_I64)
    rows = np.flatnonzero(deg)
    widths = deg[rows]
    wide = widths > _EXACT_WIDTH
    widths[wide] = np.left_shift(1, np.ceil(np.log2(widths[wide])).astype(_I64))
    for width in np.unique(widths):
        group = rows[widths == width]
        cols = np.arange(width, dtype=_I64)
        step = max(1, _BUILD_BLOCK // int(width))
        for b in range(0, group.size, step):
            r = group[b : b + step]
            d = deg[r]
            pad = cols >= d[:, None]
            idx = np.where(pad, nnz, indptr[r].astype(_I64)[:, None] + cols)
            lp = log_prefix_rows(log_prefix[idx])
            total = lp[np.arange(r.size, dtype=_I64), d - 1][:, None]
            with np.errstate(invalid="ignore"):
                frac = np.exp(lp - total)
            frac[~(total[:, 0] > -np.inf)] = 0.0
            frac += 2.0 * r[:, None]
            idx += pad
            log_prefix[idx] = lp
            locator[idx] = frac
    return log_prefix[:nnz], locator[:nnz]


def acceptance_ratios(p: float, q: float) -> np.ndarray | None:
    """Eq. 2's bias over its maximum, per move kind, or None when flat.

    Entries are for a return to the previous node (``1/p``), a move to one
    of its neighbors (``1``) and a move farther out (``1/q``), each divided
    by ``max(1/p, 1, 1/q)``: a proposal drawn from Eq. 1 and accepted with
    this probability is exactly Eq. 1 × Eq. 2.
    """
    beta = np.array([1.0 / p, 1.0, 1.0 / q])
    if np.all(beta == 1.0):
        return None
    return beta / beta.max()


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

    The temporal family's sampling index (:func:`_sampling_index`) is built
    here, once per engine: it depends on ``decay`` and on the graph's
    time scale (``scale_times``) at build time.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        p: float = 1.0,
        q: float = 1.0,
        decay: float = 1.0,
        real_dtype=np.float64,
    ) -> None:
        check_positive("p", p)
        check_positive("q", q)
        check_non_negative("decay", decay)
        self.graph = graph
        self._real = np.dtype(real_dtype)
        self._idx = graph.index_dtype
        self.p = float(p)
        self.q = float(q)
        self.decay = float(decay)
        self._accept = acceptance_ratios(self.p, self.q)
        indptr, nbr, times, weights, _ = graph.incidence_csr()
        self._indptr = indptr
        self._inc_nbr = nbr
        self._inc_time = times
        dindptr, dnbr, dmult = graph.distinct_csr()
        self._dindptr = dindptr
        self._dnbr = dnbr
        self._dmult = dmult
        self._ddeg = np.diff(dindptr)
        # Encoded (owner, neighbor) pairs of the distinct CSR.  The CSR is
        # sorted by owner then neighbor, so this flat key array is globally
        # sorted and adjacency tests become one searchsorted for any batch.
        # The key base is the node count *now*: an ``extend_in_place`` that
        # brings in a new node id grows the graph, but not these keys.
        self._key_base = np.int64(graph.num_nodes)
        owners = np.repeat(np.arange(graph.num_nodes, dtype=_I64), self._ddeg)
        self._pair_keys = owners * self._key_base + dnbr
        del owners  # freed before the index build, which lowers peak memory
        self._log_prefix, self._locator = _sampling_index(
            indptr, times, weights, graph.scale_times, self.decay
        )
        self._first_tables: PackedAliasTables | None = None
        self._pair_cache: dict = {}

    # ------------------------------------------------------------------
    # vectorized binary searches over the flat CSR arrays
    # ------------------------------------------------------------------
    @staticmethod
    def _bisect(values, lo, hi, bound) -> np.ndarray:
        """Per-segment ``searchsorted`` on a flat array sorted within segments.

        For every walk ``i`` returns the first index in ``[lo[i], hi[i])``
        whose value is not below ``bound[i]`` (``hi[i]`` if none) — i.e.
        ``side='left'`` of :func:`numpy.searchsorted`, batched over segments
        in branch-free lockstep.  ``np.nextafter(t, np.inf)`` as the bound
        gives ``side='right'`` of ``t``.
        """
        lo = lo.astype(_I64, copy=True)
        n = hi - lo
        for _ in range(int(n.max(initial=0)).bit_length()):
            half = n >> 1
            mid = lo + half
            right = (values.take(mid, mode="clip") < bound) & (n > 0)
            lo = np.where(right, mid + 1, lo)
            n = np.where(right, n - half - 1, half)
        return lo

    def _locate(self, lo, cut, row, total, target) -> np.ndarray:
        """Invert Eq. 1's row-local CDF: the index ``k`` in ``[lo, cut)`` with
        ``log_prefix[k-1] <= target < log_prefix[k]`` (``cut - 1`` if none).

        One global ``searchsorted`` on the locator proposes ``k`` for every
        target; each proposal is checked against the exact ``log_prefix``
        and only the misses (locator rounding, or an underflowed locator
        fraction) are bisected in lockstep.  ``total`` is the row's whole
        log mass, ``log_prefix[row_end]``.
        """
        lp = self._log_prefix
        hint = 2.0 * row + np.exp(target - total)
        k = np.searchsorted(self._locator, hint, side="right")
        ok = (k >= lo) & (k <= cut)
        ok &= (k == cut) | (lp[np.minimum(k, lp.size - 1)] > target)
        ok &= (k == lo) | (lp[np.maximum(k - 1, 0)] <= target)
        miss = np.flatnonzero(~ok)
        if miss.size:
            k[miss] = self._bisect(lp, lo[miss], cut[miss], np.nextafter(target[miss], np.inf))
        return np.minimum(k, cut - 1)

    def _adjacent(self, prev, cand) -> np.ndarray:
        """Whether ``cand[i]`` is a distinct neighbor of ``prev[i]`` (vectorized).

        One binary search over the globally sorted encoded pair keys answers
        the whole batch.
        """
        # Encoded keys must be computed in int64: narrowed int32 ids would
        # otherwise overflow at num_nodes**2 under NumPy's value-preserving
        # promotion rules.
        keys = prev.astype(_I64, copy=False) * self._key_base + cand
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

        Strictly-historical first hop (unless ``include_context``),
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

        Every hop of every active walk is, in lockstep:

        1. the historical cut ``[lo, cut)`` of the current node's row;
        2. its Eq. 1 log mass ``log_prefix[cut - 1]``; a walk with no
           history or only zero-weight history terminates;
        3. an exact Eq. 1 draw: the index whose row-local prefix first
           exceeds ``u · P[cut - 1]``, i.e. ``log_prefix`` exceeds
           ``log_prefix[cut - 1] + log(u)`` (:meth:`_locate`);
        4. on hops with a previous node, Eq. 2's bias by rejection: each
           pending walk draws :data:`PROPOSALS` positions, then as many
           acceptance coins, and keeps its first proposal whose coin falls
           under :func:`acceptance_ratios`; walks with none accepted draw
           another block.

        RNG draw order per hop: one ``random(n)`` for a first (or unbiased)
        hop; otherwise per round ``random((m, PROPOSALS))`` positions then
        ``random((m, PROPOSALS))`` coins for the ``m`` pending walks.
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

        cur = starts.copy()
        prev = np.full(b, -1, dtype=_I64)
        # The cut keeps events with time below ``bound``: strictly before
        # the anchor on the first hop (unless ``include_context``), then at
        # or before the last traversed edge (non-increasing times).
        bound = np.nextafter(anchors, np.inf) if include_context else anchors.copy()
        active = np.arange(b, dtype=_I64)

        for hop in range(length):
            if active.size == 0:
                break
            c = cur[active]
            lo = self._indptr[c].astype(_I64)
            hi = self._indptr[c + 1].astype(_I64)
            cut = self._bisect(self._inc_time, lo, hi, bound[active])
            mass = self._log_prefix[cut - 1]  # wraps harmlessly where cut == 0
            ok = (cut > lo) & (mass > -np.inf)
            active = active[ok]
            if active.size == 0:
                break
            c, lo, hi, cut, mass = c[ok], lo[ok], hi[ok], cut[ok], mass[ok]
            total = self._log_prefix[hi - 1]
            if hop == 0 or self._accept is None:
                target = mass + np.log(rng.random(active.size))
                pick = self._locate(lo, cut, c, total, target)
            else:
                pick = self._propose(lo, cut, c, total, mass, prev[active], rng)

            nxt = self._inc_nbr[pick]
            etime = self._inc_time[pick]
            prev[active] = cur[active]
            cur[active] = nxt
            nodes_buf[active, lengths[active]] = nxt
            times_buf[active, lengths[active] - 1] = etime
            lengths[active] += 1
            bound[active] = np.nextafter(etime, np.inf)
        return nodes_buf, times_buf, lengths

    def _propose(self, lo, cut, row, total, mass, prev, rng) -> np.ndarray:
        """Eq. 1 × Eq. 2 picks by blocked rejection (see :meth:`_temporal_raw`).

        ``prev`` is each walk's previous node — the node the hop leaves is
        ``row``, so a candidate equal to ``prev`` is a return move.  A coin
        below the smallest ratio accepts whatever was proposed, so the
        proposals after a walk's first such coin are never looked up.
        """
        pick = np.empty(lo.size, dtype=_I64)
        pending = np.arange(lo.size, dtype=_I64)
        while pending.size:
            m = pending.size
            pos = rng.random((m, PROPOSALS))
            coin = rng.random((m, PROPOSALS))
            sure = coin < self._accept.min()
            w, j = np.nonzero(np.cumsum(sure, axis=1) - sure == 0)
            walk = pending[w]
            target = mass[walk] + np.log(pos[w, j])
            k = self._locate(lo[walk], cut[walk], row[walk], total[walk], target)
            cand = self._inc_nbr[k]
            back = prev[walk]
            kind = np.where(cand == back, 0, np.where(self._adjacent(back, cand), 1, 2))
            accepted = np.zeros((m, PROPOSALS), dtype=bool)
            accepted[w, j] = coin[w, j] < self._accept[kind]
            picks = np.empty((m, PROPOSALS), dtype=_I64)
            picks[w, j] = k
            hit = accepted.any(axis=1)
            pick[pending[hit]] = picks[hit, accepted.argmax(axis=1)[hit]]
            pending = pending[~hit]
        return pick

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

        Bitwise-equivalent to emitting ``Walk`` objects and padding them one
        by one (the ``batch_walks`` test oracle): same [0, 1] time scaling,
        same per-position time-sum addition order (edge ``i-1`` accumulated
        before edge ``i``), same in-place reversal for ``chronological``
        batches, same zero padding.
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

        The same lockstep loop as :meth:`temporal` fills the same raw buffers
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

        The array-native form of :meth:`uniform` (see
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
        picks uniformly among the strictly-newer incident events (Nguyen et
        al.'s CTDNE with uniform edge and node selection, Section V.C).
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

        for _ in range(length - 1):
            if active.size == 0:
                break
            c = cur[active]
            hi = self._indptr[c + 1]
            # strictly newer events: side='right' of the current time
            cut = self._bisect(
                self._inc_time, self._indptr[c], hi, np.nextafter(t_cur[active], np.inf)
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
