"""Walk records shared by all walk engines.

Two result containers live here:

- :class:`Walk` — one walk as plain Python ``int`` node ids and ``float``
  edge times.  The vectorized :class:`~repro.walks.engine.BatchedWalkEngine`
  materializes these for skip-gram corpora, and the per-node reference
  loops the tests check it against build the same records, so results can
  be compared with ``==`` across paths.
- :class:`WalkBatch` — a whole batch of walks as padded ``(W, T)`` arrays,
  ready for the aggregator.  Produced by the engine's array-native fast
  path (``temporal_walk_batch`` / ``uniform_walk_batch``), which never
  materializes per-walk Python objects; the tests build the same arrays
  from ``Walk`` lists with a padding loop (``batch_walks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Walk:
    """One random walk.

    Attributes
    ----------
    nodes:
        Visited node ids, in visit order (length ``L >= 1``).
    edge_times:
        Raw timestamps of the traversed edges (length ``L - 1``);
        ``edge_times[i]`` is the time of the edge ``nodes[i] -> nodes[i+1]``.
        Empty for static walks.
    """

    nodes: list[int]
    edge_times: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.nodes) == 0:
            raise ValueError("a walk must visit at least one node")
        if self.edge_times and len(self.edge_times) != len(self.nodes) - 1:
            raise ValueError("edge_times must have length len(nodes) - 1")

    def __len__(self) -> int:
        return len(self.nodes)

    def node_time_sums(self, scale=None) -> np.ndarray:
        """Per-position sum of timestamps of walk edges incident to that position.

        This is the ``Σ_{(u,v) ∈ r} t_(u,v)`` quantity of Eq. 3/4: walk edge
        ``i`` (connecting positions ``i`` and ``i + 1``) contributes its
        timestamp to both endpoint *positions*, so the returned array has one
        entry per visited position (length ``len(nodes)``), not per distinct
        node — when a walk revisits a node, each visit keeps its own sum, and
        the per-node accumulation of the paper's "interaction frequency"
        happens downstream in the aggregation batching.

        ``scale`` maps raw times onto ``[0, 1]`` before summing (pass
        ``graph.scale_time``); ``None`` sums raw timestamps.  Static walks
        (no edge times) return all zeros.  The output is independent of
        whether the walk came from a per-node loop or the batched engine —
        only ``nodes``/``edge_times`` matter.
        """
        sums = np.zeros(len(self.nodes), dtype=np.float64)
        for i, t in enumerate(self.edge_times):
            value = scale(t) if scale is not None else t
            sums[i] += value
            sums[i + 1] += value
        return sums


@dataclass
class WalkBatch:
    """Padded walk arrays ready for the aggregator.

    ``ids``/``valid``/``time_sums`` all have shape ``(W, T)`` where ``W`` is
    the total number of walks in the batch and ``T`` the longest walk; ``k``
    walks per target, so ``W = B * k``.  Padding slots hold id 0, validity 0
    and time-sum 0 regardless of which producer built the batch, so the
    engine's array-native ``*_walk_batch`` fast path and the tests'
    ``batch_walks`` oracle over ``Walk`` lists yield bitwise-equal arrays
    for the same walks.

    Dtypes follow the precision policy of the producer: the default layout
    is ``int64`` ids with ``float64`` valid/time-sums, while the fast
    (``float32``) mode emits ``float32`` floats and — on graphs whose id
    space fits ``int32`` — narrowed ids, halving the batch's memory
    (:meth:`nbytes`).  The selection helpers below preserve whatever dtypes
    the producer chose.
    """

    ids: np.ndarray
    valid: np.ndarray
    time_sums: np.ndarray
    k: int

    @property
    def num_walks(self) -> int:
        return self.ids.shape[0]

    @property
    def max_len(self) -> int:
        return self.ids.shape[1]

    @property
    def nbytes(self) -> int:
        """Memory footprint of the padded arrays, in bytes."""
        return self.ids.nbytes + self.valid.nbytes + self.time_sums.nbytes

    def row_lengths(self) -> np.ndarray:
        """Unpadded length of every walk row, ``(W,)``."""
        return self.valid.sum(axis=1).astype(np.int64)

    def take_targets(self, target_idx) -> "WalkBatch":
        """The sub-batch holding the ``k`` walks of each selected target.

        ``target_idx`` indexes *targets* (row groups of ``k``), in the order
        the result should keep.  Rows are re-trimmed to the longest surviving
        walk, matching what ``batch_walks`` would pad the subset to.
        """
        target_idx = np.asarray(target_idx, dtype=np.int64)
        rows = (
            target_idx[:, None] * self.k + np.arange(self.k, dtype=np.int64)
        ).ravel()
        valid = self.valid[rows]
        max_len = max(int(valid.sum(axis=1).max(initial=0)), 1)
        return WalkBatch(
            ids=self.ids[rows, :max_len],
            valid=valid[:, :max_len],
            time_sums=self.time_sums[rows, :max_len],
            k=self.k,
        )

    def merged(self) -> "WalkBatch":
        """Each target's ``k`` walks concatenated into one row (``k=1``).

        The single-level layout used by EHNA-SL: walk rows are spliced in
        walk order with their padding dropped, so per-walk time-sums (already
        computed) never leak across walk boundaries — the array-native
        equivalent of ``batch_walks(..., merge=True)``.
        """
        w, t = self.ids.shape
        b = w // self.k
        lens = self.row_lengths()
        totals = lens.reshape(b, self.k).sum(axis=1)
        merged_len = int(totals.max(initial=0))
        src = np.flatnonzero(self.valid.ravel())  # row-major: walk, position
        row = np.repeat(np.arange(b, dtype=np.int64), totals)
        starts = np.zeros(b, dtype=np.int64)
        np.cumsum(totals[:-1], out=starts[1:])
        col = np.arange(src.size, dtype=np.int64) - np.repeat(starts, totals)
        # Preserve the producer's dtypes (narrowed ids / policy-real floats).
        ids = np.zeros((b, merged_len), dtype=self.ids.dtype)
        valid = np.zeros((b, merged_len), dtype=self.valid.dtype)
        sums = np.zeros((b, merged_len), dtype=self.time_sums.dtype)
        ids[row, col] = self.ids.ravel()[src]
        valid[row, col] = 1.0
        sums[row, col] = self.time_sums.ravel()[src]
        return WalkBatch(ids=ids, valid=valid, time_sums=sums, k=1)

