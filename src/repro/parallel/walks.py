"""Sharded walk generation over a shared-memory graph.

:class:`ParallelWalkEngine` fans a walk request out over fixed-size shards
of the start nodes.  Each shard runs an ordinary
:class:`~repro.walks.engine.BatchedWalkEngine` — in this process
(``num_workers <= 1``) or on a persistent spawn pool whose workers attached
the graph's shared segment once at startup (``num_workers >= 2``) — and the
shard batches are reassembled in shard order with
:func:`~repro.walks.base.concat_walk_batches`.

**Determinism.**  The shard layout depends only on the request and
``shard_size`` (never the worker count), and shard ``i`` draws from the
substream ``SeedSequence(entropy=(step_seed, i))``.  So for a fixed seed the
reassembled :class:`~repro.walks.base.WalkBatch` is bitwise-identical across
any worker count, including the inline path — what changes with workers is
wall-clock only.  The batches differ from a *single* engine call with one
stream (that interleaves all walks in one lockstep loop); the sharded
layout is its own deterministic sampling scheme.
"""

from __future__ import annotations

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.pool import _WORKER, shard_ranges, shard_rng, spawn_pool
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive
from repro.walks.base import WalkBatch, concat_walk_batches
from repro.walks.engine import BatchedWalkEngine


def _init_walk_worker(handle, engine_kwargs: dict) -> None:
    """Pool initializer: attach the graph, build this worker's engine once."""
    graph = TemporalGraph.from_handle(handle)
    _WORKER["walk_graph"] = graph
    _WORKER["walk_engine"] = BatchedWalkEngine(graph, **engine_kwargs)


def _run_shard(
    engine: BatchedWalkEngine,
    kind: str,
    nodes: np.ndarray,
    anchors,
    num_walks: int,
    length: int,
    step_seed: int,
    shard_idx: int,
    include_context: bool,
    chronological: bool,
) -> WalkBatch:
    """One shard's walks on its own RNG substream (leader or worker side)."""
    rng = shard_rng(step_seed, shard_idx)
    if kind == "temporal":
        return engine.temporal_walk_batch(
            nodes,
            anchors,
            num_walks,
            length,
            rng,
            include_context=include_context,
            chronological=chronological,
        )
    return engine.uniform_walk_batch(
        nodes, num_walks, length, rng, chronological=chronological
    )


def _pool_shard(*args) -> WalkBatch:
    """Pool task: run a shard on this worker's persistent engine."""
    return _run_shard(_WORKER["walk_engine"], *args)


class ParallelWalkEngine:
    """Walk-batch generation sharded across processes (or inline).

    Parameters
    ----------
    graph:
        Any :class:`~repro.graph.TemporalGraph`; non-shared backends are
        converted with ``to_shared()`` (the engine owns — and on
        :meth:`close` unlinks — that conversion's segment).
    num_workers:
        ``<= 1`` runs every shard inline (no pool, same math);
        ``>= 2`` runs shards on that many persistent spawn workers.
    shard_size:
        Start nodes per shard — with ``shard_size >= len(nodes)`` a request
        is one shard.  Part of the sampling scheme: changing it changes
        which substream a node's walks draw from (worker counts do not).
    p, q, decay, real_dtype:
        Forwarded to every :class:`~repro.walks.engine.BatchedWalkEngine`.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        num_workers: int = 0,
        shard_size: int = 1024,
        p: float = 1.0,
        q: float = 1.0,
        decay: float = 1.0,
        real_dtype=np.float64,
    ):
        check_non_negative("num_workers", num_workers)
        check_positive("shard_size", shard_size)
        if graph.storage_backend != "shared":
            self._graph = graph.to_shared()
            self._own_graph = True
        else:
            self._graph = graph
            self._own_graph = False
        self.num_workers = int(num_workers)
        self.shard_size = int(shard_size)
        engine_kwargs = dict(p=p, q=q, decay=decay, real_dtype=np.dtype(real_dtype).str)
        self._local = BatchedWalkEngine(self._graph, **engine_kwargs)
        self._pool = (
            spawn_pool(
                self.num_workers,
                _init_walk_worker,
                (self._graph.shared_handle, engine_kwargs),
            )
            if self.num_workers >= 2
            else None
        )

    @property
    def graph(self) -> TemporalGraph:
        """The shared-memory graph the shards walk on."""
        return self._graph

    def temporal_walk_batch(
        self,
        nodes,
        anchors,
        num_walks: int,
        length: int,
        seed=None,
        include_context: bool = False,
        chronological: bool = True,
    ) -> WalkBatch:
        """Sharded :meth:`BatchedWalkEngine.temporal_walk_batch`.

        ``seed`` may be an int, a generator (one draw is consumed), or
        ``None`` (nondeterministic).  Same seed → bitwise-same batch for
        every worker count.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        anchors = np.asarray(anchors, dtype=np.float64)
        if anchors.shape != nodes.shape:
            raise ValueError(f"anchors shape {anchors.shape} != nodes shape {nodes.shape}")
        return self._batch("temporal", nodes, anchors, num_walks, length, seed,
                           include_context, chronological)

    def uniform_walk_batch(
        self,
        nodes,
        num_walks: int,
        length: int,
        seed=None,
        chronological: bool = True,
    ) -> WalkBatch:
        """Sharded :meth:`BatchedWalkEngine.uniform_walk_batch`."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self._batch("uniform", nodes, None, num_walks, length, seed,
                           False, chronological)

    def _batch(self, kind, nodes, anchors, num_walks, length, seed,
               include_context, chronological) -> WalkBatch:
        if nodes.size == 0:
            raise ValueError("walk batch needs at least one start node")
        step_seed = int(ensure_rng(seed).integers(2**63 - 1))
        tasks = [
            (
                kind,
                nodes[lo:hi],
                None if anchors is None else anchors[lo:hi],
                num_walks,
                length,
                step_seed,
                shard_idx,
                include_context,
                chronological,
            )
            for shard_idx, (lo, hi) in enumerate(shard_ranges(nodes.size, self.shard_size))
        ]
        if self._pool is None:
            batches = [_run_shard(self._local, *t) for t in tasks]
        else:
            futures = [self._pool.submit(_pool_shard, *t) for t in tasks]
            batches = [f.result() for f in futures]
        return concat_walk_batches(batches)

    def close(self) -> None:
        """Shut the pool down; unlink the graph segment if this engine owns it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._own_graph:
            self._graph.storage.close()

    def __enter__(self) -> "ParallelWalkEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
