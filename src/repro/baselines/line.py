"""LINE baseline [4]: first- plus second-order proximity embeddings.

LINE optimizes two objectives by sampling edges with probability
proportional to their weight:

- *first-order* (O1): endpoints of an observed edge score high under
  ``σ(u·v)`` against degree-biased noise — preserves local pairwise
  proximity;
- *second-order* (O2): a node predicts its neighbor's *context* vector —
  nodes with similar neighborhoods converge.

As the authors recommend (and Section V.B repeats), the final embedding is
the concatenation of the two, each trained in ``dim/2`` so the total matches
the other methods.  Timestamps are ignored entirely (hence the inherited
time-invariant ``encode``); LINE's per-epoch cost depends only on the number
of sampled edges, which reproduces its flat runtime row in Table VIII.

Sampling rounds run on the shared :class:`~repro.core.trainer.Trainer`
(``samples_per_edge`` epochs of one weighted edge draw per edge each), which
also gives LINE a per-round ``loss_history``.  ``partial_fit`` keeps the
trained halves, grows them for new nodes, and runs the same sampler over the
*fresh* edges only.
"""

from __future__ import annotations

import numpy as np

from repro.base import EmbeddingMethod
from repro.baselines.skipgram import _sigmoid, degree_noise_weights
from repro.core.trainer import Trainer
from repro.nn.dtypes import get_precision
from repro.graph.temporal_graph import TemporalGraph
from repro.utils.alias import AliasTable
from repro.utils.checkpoint import CheckpointError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


class LINE(EmbeddingMethod):
    """Large-scale Information Network Embedding (orders 1 + 2)."""

    name = "LINE"
    _TABLE_KEY = "first"

    def __init__(
        self,
        dim: int = 32,
        samples_per_edge: int = 20,
        num_negatives: int = 5,
        batch_size: int = 512,
        lr: float = 0.025,
        seed=None,
        precision: str = "float64",
    ):
        check_positive("dim", dim)
        if dim % 2 != 0:
            raise ValueError("LINE needs an even dim (two concatenated halves)")
        check_positive("samples_per_edge", samples_per_edge)
        check_positive("num_negatives", num_negatives)
        self.precision = get_precision(precision).name
        self._real = get_precision(precision).real
        self.dim = dim
        self.samples_per_edge = samples_per_edge
        self.num_negatives = num_negatives
        self.batch_size = batch_size
        self.lr = lr
        self._rng = ensure_rng(seed)
        self.graph: TemporalGraph | None = None
        self._first: np.ndarray | None = None
        self._second: np.ndarray | None = None
        self._context: np.ndarray | None = None
        self._emb: np.ndarray | None = None
        self.loss_history: list[float] = []

    def _init_rows(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        half = self.dim // 2
        bound = 0.5 / half
        real = self._real
        first = self._rng.uniform(-bound, bound, size=(n, half)).astype(real, copy=False)
        second = self._rng.uniform(-bound, bound, size=(n, half)).astype(real, copy=False)
        context = np.zeros((n, half), dtype=real)
        return first, second, context

    def fit(self, graph: TemporalGraph, callbacks=()) -> "LINE":
        self.graph = graph
        self._first, self._second, self._context = self._init_rows(graph.num_nodes)
        self.loss_history = self._sample_and_train(
            graph, np.arange(graph.num_edges), self.samples_per_edge, callbacks
        )
        self._emb = np.concatenate([self._first, self._second], axis=1)
        return self

    def _sample_and_train(
        self, graph: TemporalGraph, edge_ids: np.ndarray, rounds: int, callbacks=()
    ) -> list[float]:
        """``rounds`` weighted-sampling passes over ``edge_ids``; per-round loss.

        Each Trainer "epoch" draws ``len(edge_ids)`` edges from the weighted
        alias table (LINE's edge-sampling trick), so restricting ``edge_ids``
        to fresh arrivals turns the same loop into the incremental path.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        edge_table = AliasTable(graph.weight[edge_ids])
        noise = AliasTable(degree_noise_weights(graph.degrees()))
        m = edge_ids.size
        total = rounds * m
        q = self.num_negatives
        done = {"n": 0}

        def epoch_items(epoch, rng):
            return edge_ids[edge_table.sample(rng, size=m)]

        def step(eids):
            b = eids.size
            u = graph.src[eids].copy()
            v = graph.dst[eids].copy()
            # Undirected edges: random orientation per sample.
            flip = self._rng.random(b) < 0.5
            u[flip], v[flip] = v[flip], u[flip]
            negs = noise.sample(self._rng, size=(b, q))
            # Linearly decaying learning rate, as in the reference LINE code.
            lr = self.lr * max(1.0 - done["n"] / total, 1e-2)
            loss = self._o1_step(self._first, u, v, negs, lr)
            loss += self._o2_step(self._second, self._context, u, v, negs, lr)
            done["n"] += b
            return loss / b

        trainer = Trainer(
            epochs=rounds,
            batch_size=self.batch_size,
            rng=self._rng,
            callbacks=callbacks,
            shuffle=False,  # items are already an iid weighted sample
            name=self.name,
        )
        return trainer.run(step, epoch_items=epoch_items)

    def _apply_partial_fit(
        self, graph: TemporalGraph, fresh_edge_ids: np.ndarray, epochs: int | None
    ) -> None:
        if self._first is None:
            raise RuntimeError("call fit() before partial_fit()")
        extra = graph.num_nodes - self._first.shape[0]
        if extra > 0:
            first, second, context = self._init_rows(extra)
            self._first = np.vstack([self._first, first])
            self._second = np.vstack([self._second, second])
            self._context = np.vstack([self._context, context])
        rounds = epochs if epochs is not None else self.samples_per_edge
        self.loss_history.extend(
            self._sample_and_train(graph, fresh_edge_ids, rounds)
        )
        self._emb = np.concatenate([self._first, self._second], axis=1)

    def _o1_step(self, emb, u, v, negs, lr) -> float:
        vu, vv = emb[u], emb[v]
        s_pos = np.einsum("bd,bd->b", vu, vv)
        g_pos = _sigmoid(s_pos) - 1.0
        un = emb[negs]
        s_neg = np.einsum("bd,bqd->bq", vu, un)
        g_neg = _sigmoid(s_neg)
        grad_u = g_pos[:, None] * vv + np.einsum("bq,bqd->bd", g_neg, un)
        grad_v = g_pos[:, None] * vu
        grad_n = g_neg[:, :, None] * vu[:, None, :]
        np.add.at(emb, u, -lr * grad_u)
        np.add.at(emb, v, -lr * grad_v)
        np.add.at(emb, negs.ravel(), -lr * grad_n.reshape(-1, emb.shape[1]))
        return _ns_loss(g_pos, g_neg)

    def _o2_step(self, emb, context, u, v, negs, lr) -> float:
        vu = emb[u]
        cv = context[v]
        s_pos = np.einsum("bd,bd->b", vu, cv)
        g_pos = _sigmoid(s_pos) - 1.0
        cn = context[negs]
        s_neg = np.einsum("bd,bqd->bq", vu, cn)
        g_neg = _sigmoid(s_neg)
        grad_u = g_pos[:, None] * cv + np.einsum("bq,bqd->bd", g_neg, cn)
        grad_cv = g_pos[:, None] * vu
        grad_cn = g_neg[:, :, None] * vu[:, None, :]
        np.add.at(emb, u, -lr * grad_u)
        np.add.at(context, v, -lr * grad_cv)
        np.add.at(context, negs.ravel(), -lr * grad_cn.reshape(-1, emb.shape[1]))
        return _ns_loss(g_pos, g_neg)

    def embeddings(self) -> np.ndarray:
        if self._emb is None:
            raise RuntimeError("call fit() before embeddings()")
        return self._emb.copy()

    # -- checkpointing (protocol v2) -----------------------------------
    def _config_dict(self) -> dict:
        return {
            "dim": self.dim,
            "samples_per_edge": self.samples_per_edge,
            "num_negatives": self.num_negatives,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "precision": self.precision,
        }

    def _state_dict(self) -> tuple[dict, dict]:
        if self._emb is None:
            raise RuntimeError("call fit() before save()")
        arrays = {
            "first": self._first,
            "second": self._second,
            "context": self._context,
        }
        return arrays, {"loss_history": self.loss_history}

    def _load_state_dict(self, arrays: dict, meta: dict) -> None:
        half = self.dim // 2
        for key in ("first", "second", "context"):
            if key not in arrays:
                raise CheckpointError(f"checkpoint is missing array {key!r}")
            if arrays[key].ndim != 2 or arrays[key].shape[1] != half:
                raise CheckpointError(
                    f"checkpoint array {key!r} has shape {arrays[key].shape}, "
                    f"expected (*, {half})"
                )
        # Loading casts into the policy dtype (no-op for same-precision saves).
        self._first = np.asarray(arrays["first"], dtype=self._real)
        self._second = np.asarray(arrays["second"], dtype=self._real)
        self._context = np.asarray(arrays["context"], dtype=self._real)
        self._emb = np.concatenate([self._first, self._second], axis=1)
        self.loss_history = [float(x) for x in meta.get("loss_history", [])]


def _ns_loss(g_pos: np.ndarray, g_neg: np.ndarray) -> float:
    """Summed negative-sampling loss from the sigmoid gradients.

    ``g_pos = σ(s)-1`` and ``g_neg = σ(s)`` are exactly the quantities the
    update steps already computed; ``-log σ(s) = -log(1+g_pos)`` and
    ``-log σ(-s) = -log(1-g_neg)``.
    """
    with np.errstate(divide="ignore"):
        pos = -np.log(np.clip(1.0 + g_pos, 1e-12, None)).sum()
        neg = -np.log(np.clip(1.0 - g_neg, 1e-12, None)).sum()
    return float(pos + neg)
