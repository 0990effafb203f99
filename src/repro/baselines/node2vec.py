"""NODE2VEC and DEEPWALK baselines [1, 3].

Node2vec samples second-order biased random walks (parameters ``p``/``q``)
and feeds them to skip-gram with negative sampling; DeepWalk is the ``p = q
= 1`` special case with uniform first-order walks.  Both ignore timestamps —
they are the static references EHNA is compared against, which is also why
their ``encode(nodes, at=...)`` inherits the base class's time-invariant
table lookup.  ``partial_fit`` extends the graph and continues SGNS training
on walks restarted from the nodes the fresh edges touched.
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


class Node2Vec(SGNSCheckpointMixin, EmbeddingMethod):
    """node2vec: biased static walks + SGNS.

    Paper defaults are ``k = 10`` walks of length ``l = 80`` (Section V.C);
    the laptop defaults below keep the same walk budget ratio at small scale.
    """

    name = "Node2Vec"

    def __init__(
        self,
        dim: int = 32,
        num_walks: int = 10,
        walk_length: int = 20,
        window: int = 5,
        p: float = 1.0,
        q: float = 1.0,
        num_negatives: int = 5,
        epochs: int = 2,
        lr: float = 0.025,
        seed=None,
        precision: str = "float64",
    ):
        self.dim = dim
        self.num_walks = num_walks
        self.walk_length = walk_length
        self.window = window
        self.p = p
        self.q = q
        self.num_negatives = num_negatives
        self.epochs = epochs
        self.lr = lr
        self.precision = get_precision(precision).name
        self._rng = ensure_rng(seed)
        self.graph: TemporalGraph | None = None
        self._model: SkipGramNS | None = None

    def _walks(self, engine: BatchedWalkEngine, starts: np.ndarray) -> list:
        """One walk per start node, advanced in one lockstep batch."""
        return engine.node2vec(starts, self.walk_length, self._rng)

    def _corpus(self, graph: TemporalGraph) -> list[list[int]]:
        """``num_walks`` rounds of one walk per node in shuffled order (the
        usual corpus); each round advances in one lockstep batch."""
        check_positive("num_walks", self.num_walks)
        engine = BatchedWalkEngine(graph, p=self.p, q=self.q)
        sentences: list[list[int]] = []
        order = np.arange(graph.num_nodes, dtype=np.int64)
        for _ in range(self.num_walks):
            self._rng.shuffle(order)
            for w in self._walks(engine, order):
                if len(w) > 1:
                    sentences.append(w.nodes)
        return sentences

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

    def fit(self, graph: TemporalGraph, callbacks=()) -> "Node2Vec":
        self.graph = graph
        sentences = self._corpus(graph)
        self._model = self._new_model(graph)
        self.loss_history = self._model.train_corpus(
            sentences,
            window=self.window,
            epochs=self.epochs,
            callbacks=callbacks,
            name=self.name,
        )
        return self

    def _stream_corpus(self, graph: TemporalGraph, fresh: np.ndarray) -> list[list[int]]:
        """Walks restarted from every node the fresh edges touched."""
        touched = np.unique(np.concatenate([graph.src[fresh], graph.dst[fresh]]))
        engine = BatchedWalkEngine(graph, p=self.p, q=self.q)
        walks = self._walks(engine, np.repeat(touched, self.num_walks))
        return [w.nodes for w in walks if len(w) > 1]

    def _apply_partial_fit(
        self, graph: TemporalGraph, fresh_edge_ids: np.ndarray, epochs: int | None
    ) -> None:
        if self._model is None:
            raise RuntimeError("call fit() before partial_fit()")
        self._model.grow(
            graph.num_nodes, noise_weights=degree_noise_weights(graph.degrees())
        )
        sentences = self._stream_corpus(graph, fresh_edge_ids)
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
            "num_walks": self.num_walks,
            "walk_length": self.walk_length,
            "window": self.window,
            "p": self.p,
            "q": self.q,
            "num_negatives": self.num_negatives,
            "epochs": self.epochs,
            "lr": self.lr,
            "precision": self.precision,
        }


class DeepWalk(Node2Vec):
    """DeepWalk: uniform walks + SGNS (node2vec with ``p = q = 1``)."""

    name = "DeepWalk"

    def __init__(self, **kwargs):
        kwargs.pop("p", None)
        kwargs.pop("q", None)
        super().__init__(p=1.0, q=1.0, **kwargs)

    def _walks(self, engine: BatchedWalkEngine, starts: np.ndarray) -> list:
        return engine.uniform(starts, self.walk_length, self._rng)

    def _config_dict(self) -> dict:
        config = super()._config_dict()
        config.pop("p")  # DeepWalk's constructor pins p = q = 1
        config.pop("q")
        return config
