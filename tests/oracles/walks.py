"""Per-walk reference loops: the bitwise oracles of the batched walk engine.

Each ``*_walk_sequential`` function samples one walk one hop at a time,
with the same draws from the same RNG stream as
:class:`~repro.walks.engine.BatchedWalkEngine` at batch size one, so the
engine's walks (and the stream's end state) must match them bit for bit.
``temporal_walk_sets``/``uniform_walk_sets`` group the engine's ``Walk``
objects per target and :func:`batch_walks` pads them with a Python loop:
together they are the reference for the engine's array-native
``temporal_walk_batch``/``uniform_walk_batch``.

Nothing in ``src/`` uses these; they exist so the tests can compare the
engine against a plain reading of the sampling rules.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive
from repro.walks.base import Walk, WalkBatch
from repro.walks.engine import (
    PROPOSALS,
    acceptance_ratios,
    eq1_log_terms,
    log_prefix_rows,
)


# ----------------------------------------------------------------------
# temporal walks (EHNA, Section IV.A, Eq. 1-2)
# ----------------------------------------------------------------------
def _invert(log_prefix: np.ndarray, target: float) -> int:
    """The first index whose log prefix exceeds ``target`` (the last if none)."""
    return min(int(np.searchsorted(log_prefix, target, side="right")), log_prefix.size - 1)


def _row_log_prefix(graph, decay: float, times: np.ndarray, edge_ids: np.ndarray) -> np.ndarray:
    """Eq. 1's log prefix sums over one node's whole incidence row."""
    terms = eq1_log_terms(graph.weight[edge_ids], graph.scale_times(times), decay)
    return log_prefix_rows(terms[None, :])[0]


def _move_kind(graph, prev: int, candidate: int) -> int:
    """Eq. 2's case for a move to ``candidate``: 0 return, 1 a neighbor
    of ``prev``, 2 farther out (indexes :func:`acceptance_ratios`)."""
    if candidate == prev:
        return 0
    nbrs = graph.neighbors(prev)
    pos = int(np.searchsorted(nbrs, candidate))
    return 1 if pos < nbrs.size and nbrs[pos] == candidate else 2


def temporal_walk_sequential(
    graph,
    start: int,
    t_context: float,
    length: int,
    rng=None,
    include_context: bool = False,
    p: float = 1.0,
    q: float = 1.0,
    decay: float = 1.0,
) -> Walk:
    """The per-node loop of ``BatchedWalkEngine(graph, p, q, decay).temporal``.

    Samples the engine's scheme one walk at a time, from scratch: each
    hop recomputes the node's row of Eq. 1 log prefix sums, inverts it
    with a plain ``searchsorted``, and applies Eq. 2 by the same blocked
    rejection with the same draws.
    """
    check_positive("length", length)
    rng = ensure_rng(rng)
    accept = acceptance_ratios(p, q)

    nodes = [int(start)]
    edge_times: list[float] = []
    prev: int | None = None
    t_last = t_context
    inclusive = include_context

    for _ in range(length):
        cur = nodes[-1]
        nbrs, times, eids = graph.incident(cur)
        cut = int(np.searchsorted(times, t_last, side="right" if inclusive else "left"))
        if cut == 0:
            break
        log_prefix = _row_log_prefix(graph, decay, times, eids)[:cut]
        mass = log_prefix[-1]
        if not mass > -np.inf:
            break
        if prev is None or accept is None:
            pick = _invert(log_prefix, mass + np.log(rng.random(1))[0])
        else:
            pick = None
            while pick is None:
                targets = mass + np.log(rng.random(PROPOSALS))
                coins = rng.random(PROPOSALS)
                for target, coin in zip(targets, coins):
                    k = _invert(log_prefix, target)
                    if coin < accept[_move_kind(graph, prev, int(nbrs[k]))]:
                        pick = k
                        break
        prev = cur
        nodes.append(int(nbrs[pick]))
        edge_times.append(float(times[pick]))
        t_last = float(times[pick])
        inclusive = True  # later hops: non-increasing times (Eq. 2, case 4)
    return Walk(nodes=nodes, edge_times=edge_times)


# ----------------------------------------------------------------------
# static walks (DeepWalk, node2vec) and CTDNE's forward walks
# ----------------------------------------------------------------------
def uniform_walk_sequential(graph, start: int, length: int, rng=None) -> Walk:
    """The per-node loop of ``BatchedWalkEngine.uniform``."""
    check_positive("length", length)
    rng = ensure_rng(rng)
    nodes = [int(start)]
    for _ in range(length):
        nbrs = graph.neighbors(nodes[-1])
        if nbrs.size == 0:
            break
        nodes.append(int(nbrs[rng.integers(nbrs.size)]))
    return Walk(nodes=nodes)


def node2vec_walk_sequential(engine, start: int, length: int, rng=None) -> Walk:
    """The per-node loop of ``engine.node2vec``.

    Shares the engine's memoized alias tables, so it differs from the
    engine only in stepping one walk at a time.
    """
    check_positive("length", length)
    rng = ensure_rng(rng)
    dindptr, dnbr, _ = engine.graph.distinct_csr()
    nodes = [int(start)]
    n = dindptr[start + 1] - dindptr[start]
    if n == 0:
        return Walk(nodes=nodes)
    local = int(engine._first_order_tables().sample(np.array([start]), rng)[0])
    nodes.append(int(dnbr[dindptr[start] + local]))
    while len(nodes) < length + 1:
        prev, cur = nodes[-2], nodes[-1]
        n = int(dindptr[cur + 1] - dindptr[cur])
        if n == 0:
            break
        prob, alias = engine.pair_table(prev, cur)
        i = int(rng.integers(n))
        if rng.random() >= prob[i]:
            i = int(alias[i])
        nodes.append(int(dnbr[dindptr[cur] + i]))
    return Walk(nodes=nodes)


def ctdne_walk_sequential(graph, edge_id: int, length: int, rng=None) -> Walk:
    """The per-walk loop of ``BatchedWalkEngine.ctdne``."""
    check_positive("length", length)
    rng = ensure_rng(rng)
    u = int(graph.src[edge_id])
    v = int(graph.dst[edge_id])
    t = float(graph.time[edge_id])
    # The edge is undirected: orient it uniformly.
    if rng.random() < 0.5:
        u, v = v, u
    nodes = [u, v]
    edge_times = [t]
    while len(nodes) < length + 1:
        nbrs, times, _eids = graph.incident(nodes[-1])
        cut = np.searchsorted(times, t, side="right")
        valid = nbrs[cut:]
        valid_t = times[cut:]
        if valid.size == 0:
            break
        pick = int(rng.integers(valid.size))
        nodes.append(int(valid[pick]))
        t = float(valid_t[pick])
        edge_times.append(t)
    return Walk(nodes=nodes, edge_times=edge_times)


# ----------------------------------------------------------------------
# walk sets and their padding (the reference of the WalkBatch fast path)
# ----------------------------------------------------------------------
def temporal_walk_sets(
    engine,
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
    starts = np.repeat(np.asarray(nodes, dtype=np.int64), num_walks)
    anchors = np.repeat(np.asarray(anchors, dtype=np.float64), num_walks)
    walks = engine.temporal(starts, anchors, length, rng, include_context)
    return [walks[i : i + num_walks] for i in range(0, len(walks), num_walks)]


def uniform_walk_sets(engine, nodes, num_walks: int, length: int, rng=None) -> list[list[Walk]]:
    """``num_walks`` uniform walks per node, advanced in one lockstep batch."""
    check_positive("num_walks", num_walks)
    rng = ensure_rng(rng)
    starts = np.repeat(np.asarray(nodes, dtype=np.int64), num_walks)
    walks = engine.uniform(starts, length, rng)
    return [walks[i : i + num_walks] for i in range(0, len(walks), num_walks)]


def _walk_rows(walk: Walk, scale, chronological: bool) -> tuple[list[int], np.ndarray]:
    """Node ids and normalized time-sums of one walk, optionally reversed.

    Temporal walks visit the most recent interaction first; with
    ``chronological=True`` the sequence is reversed so the LSTM consumes
    events oldest-first and its final state emphasizes the recent past.
    """
    nodes = list(walk.nodes)
    sums = walk.node_time_sums(scale)
    if chronological:
        nodes = nodes[::-1]
        sums = sums[::-1]
    return nodes, sums


def batch_walks(
    walk_sets: list[list[Walk]],
    scale,
    chronological: bool = True,
    merge: bool = False,
    real_dtype=np.float64,
) -> WalkBatch:
    """Pad a batch of per-target walk lists into :class:`WalkBatch` arrays.

    ``walk_sets[b]`` holds the walks of target ``b``; every target must have
    the same number of walks.  With ``merge=True`` each target's walks are
    concatenated into a single sequence (per-walk time-sums are computed
    *before* merging, so edges never leak across walk boundaries) — the
    single-level layout used by EHNA-SL.

    ``real_dtype`` is the precision policy's floating dtype for the emitted
    ``valid``/``time_sums`` arrays; time-sum accumulation itself always runs
    in ``float64`` (matching the engine fast path) and only the final arrays
    narrow.  This oracle keeps ``int64`` ids — it exists for correctness
    comparisons, not memory.
    """
    if not walk_sets:
        raise ValueError("walk_sets must not be empty")
    k = len(walk_sets[0])
    if k == 0 or any(len(ws) != k for ws in walk_sets):
        raise ValueError("every target needs the same positive number of walks")

    rows: list[tuple[list[int], np.ndarray]] = []
    if merge:
        for ws in walk_sets:
            nodes: list[int] = []
            sums: list[np.ndarray] = []
            for w in ws:
                n, s = _walk_rows(w, scale, chronological)
                nodes.extend(n)
                sums.append(s)
            rows.append((nodes, np.concatenate(sums)))
        k = 1
    else:
        for ws in walk_sets:
            for w in ws:
                rows.append(_walk_rows(w, scale, chronological))

    n_rows = len(rows)
    max_len = max(len(nodes) for nodes, _ in rows)
    ids = np.zeros((n_rows, max_len), dtype=np.int64)
    valid = np.zeros((n_rows, max_len), dtype=real_dtype)
    sums_arr = np.zeros((n_rows, max_len), dtype=real_dtype)
    for i, (nodes, sums) in enumerate(rows):
        ln = len(nodes)
        ids[i, :ln] = nodes
        valid[i, :ln] = 1.0
        sums_arr[i, :ln] = sums
    return WalkBatch(ids=ids, valid=valid, time_sums=sums_arr, k=k)
