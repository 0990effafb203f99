"""Tests for CTDNE's time-respecting walks."""

import numpy as np
import pytest

from repro.baselines import CTDNE
from repro.walks import BatchedWalkEngine


def walk_from_edge(engine, edge_id, length, rng):
    return engine.ctdne(np.array([edge_id]), length, rng)[0]


class TestTimeRespecting:
    def test_times_non_decreasing(self, tiny_graph):
        engine = BatchedWalkEngine(tiny_graph)
        rng = np.random.default_rng(0)
        for e in range(tiny_graph.num_edges):
            w = walk_from_edge(engine, e, 6, rng)
            assert all(
                w.edge_times[i] <= w.edge_times[i + 1]
                for i in range(len(w.edge_times) - 1)
            )

    def test_walk_starts_with_edge_endpoints(self, path_graph):
        engine = BatchedWalkEngine(path_graph)
        w = walk_from_edge(engine, 0, 3, np.random.default_rng(0))
        assert set(w.nodes[:2]) == {0, 1}
        assert w.edge_times[0] == 1.0

    def test_forward_only_on_path(self, path_graph):
        """From edge (0,1,t=1) the only time-respecting direction is right."""
        engine = BatchedWalkEngine(path_graph)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = walk_from_edge(engine, 0, 4, rng)
            if w.nodes[0] == 0:  # oriented 0 -> 1
                assert w.nodes == [0, 1, 2, 3, 4]

    def test_stuck_walk_terminates(self, path_graph):
        """From the last edge there is nowhere newer to go."""
        engine = BatchedWalkEngine(path_graph)
        w = walk_from_edge(engine, 3, 5, np.random.default_rng(0))
        assert len(w.nodes) <= 3  # at most the edge + one tie step

    def test_walks_stay_on_edges(self, sbm_graph):
        engine = BatchedWalkEngine(sbm_graph)
        rng = np.random.default_rng(1)
        for _ in range(30):
            e = int(rng.integers(sbm_graph.num_edges))
            w = walk_from_edge(engine, e, 8, rng)
            for a, b in zip(w.nodes, w.nodes[1:]):
                assert sbm_graph.has_edge(a, b)


class TestCorpus:
    def test_corpus_size(self, sbm_graph):
        """One walk per node per round; a walk holds its start edge at least."""
        corpus = CTDNE(walks_per_node=2, walk_length=6, seed=0)._corpus(sbm_graph)
        assert len(corpus) == 2 * sbm_graph.num_nodes

    def test_sentences_are_node_lists(self, sbm_graph):
        corpus = CTDNE(walks_per_node=1, walk_length=6, seed=0)._corpus(sbm_graph)
        for s in corpus:
            assert len(s) >= 2
            assert all(isinstance(v, int) for v in s)

    def test_validation(self, sbm_graph):
        with pytest.raises(ValueError):
            CTDNE(walks_per_node=0, walk_length=6)._corpus(sbm_graph)
