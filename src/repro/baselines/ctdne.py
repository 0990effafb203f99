"""CTDNE baseline [12]: continuous-time dynamic network embeddings.

CTDNE replaces node2vec's static walks with *time-respecting* walks (each
step moves to an edge no older than the previous one), then trains the same
skip-gram model, so co-occurrence is only counted along temporally valid
paths.  Following Section V.C we use uniform initial edge selection and
uniform node selection within the walk.

Although training is time-aware, the output is one frozen vector per node,
so ``encode(nodes, at=...)`` inherits the base class's time-invariant table
lookup.  ``partial_fit`` extends the graph and continues SGNS training on
time-respecting walks started *from the fresh edges themselves* — exactly
CTDNE's initial-edge sampling, restricted to the arrivals.
"""

from __future__ import annotations

import numpy as np

from repro.base import EmbeddingMethod
from repro.baselines.skipgram import (
    SGNSCheckpointMixin,
    SkipGramNS,
    degree_noise_weights,
)
from repro.graph.temporal_graph import TemporalGraph
from repro.nn.dtypes import get_precision
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive
from repro.walks.engine import BatchedWalkEngine


class CTDNE(SGNSCheckpointMixin, EmbeddingMethod):
    """Time-respecting walks + SGNS."""

    name = "CTDNE"

    def __init__(
        self,
        dim: int = 32,
        walks_per_node: int = 10,
        walk_length: int = 20,
        window: int = 5,
        num_negatives: int = 5,
        epochs: int = 2,
        lr: float = 0.025,
        seed=None,
        precision: str = "float64",
    ):
        self.dim = dim
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length
        self.window = window
        self.num_negatives = num_negatives
        self.epochs = epochs
        self.lr = lr
        self.precision = get_precision(precision).name
        self._rng = ensure_rng(seed)
        self.graph: TemporalGraph | None = None
        self._model: SkipGramNS | None = None

    def _new_model(self, graph: TemporalGraph) -> SkipGramNS:
        return SkipGramNS(
            graph.num_nodes,
            dim=self.dim,
            num_negatives=self.num_negatives,
            lr=self.lr,
            noise_weights=degree_noise_weights(graph.degrees()),
            seed=self._rng,
            precision=self.precision,
        )

    def _corpus(self, graph: TemporalGraph) -> list[list[int]]:
        """Walks from uniformly drawn start edges (Section V.C), drawn up
        front and advanced in one lockstep batch.

        Matches the walk budget of the static baselines: one temporal walk
        per node per round.
        """
        num_walks = self.walks_per_node * graph.num_nodes
        check_positive("num_walks", num_walks)
        edges = self._rng.integers(graph.num_edges, size=num_walks)
        walks = BatchedWalkEngine(graph).ctdne(edges, self.walk_length, self._rng)
        return [w.nodes for w in walks if len(w) > 1]

    def fit(self, graph: TemporalGraph, callbacks=()) -> "CTDNE":
        self.graph = graph
        sentences = self._corpus(graph)
        if not sentences:
            raise RuntimeError("CTDNE sampled no usable walks")
        self._model = self._new_model(graph)
        self.loss_history = self._model.train_corpus(
            sentences,
            window=self.window,
            epochs=self.epochs,
            callbacks=callbacks,
            name=self.name,
        )
        return self

    def _apply_partial_fit(
        self, graph: TemporalGraph, fresh_edge_ids: np.ndarray, epochs: int | None
    ) -> None:
        if self._model is None:
            raise RuntimeError("call fit() before partial_fit()")
        self._model.grow(
            graph.num_nodes, noise_weights=degree_noise_weights(graph.degrees())
        )
        starts = np.repeat(fresh_edge_ids, self.walks_per_node)
        walks = BatchedWalkEngine(graph).ctdne(starts, self.walk_length, self._rng)
        sentences = [w.nodes for w in walks if len(w) > 1]
        if not sentences:
            return
        self.loss_history.extend(
            self._model.train_corpus(
                sentences,
                window=self.window,
                epochs=epochs if epochs is not None else 1,
                name=self.name,
            )
        )

    def embeddings(self) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("call fit() before embeddings()")
        return self._model.embeddings()

    # -- checkpointing (protocol v2) -----------------------------------
    def _config_dict(self) -> dict:
        return {
            "dim": self.dim,
            "walks_per_node": self.walks_per_node,
            "walk_length": self.walk_length,
            "window": self.window,
            "num_negatives": self.num_negatives,
            "epochs": self.epochs,
            "lr": self.lr,
            "precision": self.precision,
        }

