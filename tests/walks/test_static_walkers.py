"""Tests for the uniform and node2vec walks."""

import numpy as np
import pytest

from repro.baselines import Node2Vec
from repro.graph import TemporalGraph
from repro.walks import BatchedWalkEngine


def uniform_walk(engine, start, length, rng):
    return engine.uniform(np.array([start]), length, rng)[0]


def node2vec_walk(engine, start, length, rng):
    return engine.node2vec(np.array([start]), length, rng)[0]


def star_graph():
    """Node 0 connected to 1..4."""
    return TemporalGraph.from_edges(
        np.zeros(4, dtype=int), np.arange(1, 5), np.arange(4, dtype=float)
    )


class TestUniformWalker:
    def test_walks_stay_on_edges(self, tiny_graph):
        engine = BatchedWalkEngine(tiny_graph)
        rng = np.random.default_rng(0)
        for _ in range(30):
            w = uniform_walk(engine, 0, 5, rng)
            for a, b in zip(w.nodes, w.nodes[1:]):
                assert tiny_graph.has_edge(a, b)

    def test_isolated_node_stays_put(self):
        g = TemporalGraph.from_edges(
            np.array([0]), np.array([1]), np.array([1.0]), num_nodes=3
        )
        w = uniform_walk(BatchedWalkEngine(g), 2, 4, np.random.default_rng(0))
        assert w.nodes == [2]

    def test_length_bound(self, sbm_graph):
        w = uniform_walk(BatchedWalkEngine(sbm_graph), 0, 7, np.random.default_rng(1))
        assert len(w.nodes) <= 8

    def test_walks_batch(self, tiny_graph):
        engine = BatchedWalkEngine(tiny_graph)
        ws = engine.uniform(np.zeros(6, dtype=int), 3, np.random.default_rng(0))
        assert len(ws) == 6

    def test_uniform_over_neighbors(self):
        engine = BatchedWalkEngine(star_graph())
        rng = np.random.default_rng(0)
        counts = np.zeros(5)
        for _ in range(2000):
            counts[uniform_walk(engine, 0, 1, rng).nodes[1]] += 1
        np.testing.assert_allclose(counts[1:] / 2000, 0.25, atol=0.04)


class TestNode2VecWalker:
    def test_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            BatchedWalkEngine(tiny_graph, p=0)
        with pytest.raises(ValueError):
            BatchedWalkEngine(tiny_graph, q=-1)

    def test_walks_stay_on_edges(self, tiny_graph):
        engine = BatchedWalkEngine(tiny_graph, p=0.5, q=2.0)
        rng = np.random.default_rng(0)
        for start in range(tiny_graph.num_nodes):
            w = node2vec_walk(engine, start, 6, rng)
            for a, b in zip(w.nodes, w.nodes[1:]):
                assert tiny_graph.has_edge(a, b)

    def test_multiplicity_weights_first_step(self):
        """Parallel temporal edges double the static transition weight."""
        g = TemporalGraph.from_edges(
            np.array([0, 0, 0]), np.array([1, 1, 2]), np.array([1.0, 2.0, 3.0])
        )
        engine = BatchedWalkEngine(g)
        rng = np.random.default_rng(0)
        to_1 = sum(node2vec_walk(engine, 0, 1, rng).nodes[1] == 1 for _ in range(900))
        assert to_1 / 900 == pytest.approx(2 / 3, abs=0.05)

    def test_low_p_backtracks(self):
        """p << 1 on a path graph forces constant backtracking."""
        g = TemporalGraph.from_edges(
            np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])
        )
        rng = np.random.default_rng(0)
        returny = BatchedWalkEngine(g, p=0.01, q=1.0)
        w = [node2vec_walk(returny, 0, 10, rng).nodes for _ in range(50)]
        backtracks = sum(
            nodes[i] == nodes[i - 2] for nodes in w for i in range(2, len(nodes))
        )
        total = sum(max(len(nodes) - 2, 0) for nodes in w)
        assert backtracks / total > 0.8

    def test_corpus_shape(self, sbm_graph):
        corpus = Node2Vec(num_walks=2, walk_length=5, seed=0)._corpus(sbm_graph)
        # every non-isolated node contributes one walk per round
        assert len(corpus) <= 2 * sbm_graph.num_nodes
        assert all(len(s) >= 2 for s in corpus)

    def test_alias_cache_reused(self, sbm_graph):
        engine = BatchedWalkEngine(sbm_graph)
        rng = np.random.default_rng(0)
        node2vec_walk(engine, 0, 10, rng)
        size_once = len(engine._pair_cache)
        node2vec_walk(engine, 0, 10, rng)
        assert len(engine._pair_cache) >= size_once  # grows or reuses, never resets
