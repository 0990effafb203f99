"""Tests for the paper's temporal random walk (Eq. 1-2, Definition 2)."""

import numpy as np
import pytest

from repro.graph import TemporalGraph
from repro.walks import BatchedWalkEngine


def walk(engine, start, t_context, length, rng, include_context=False):
    """One temporal walk: an engine batch of one."""
    return engine.temporal(
        np.array([start]), np.array([t_context]), length, rng, include_context
    )[0]


class TestHistoricalConstraint:
    def test_first_hop_strictly_before_context(self, path_graph):
        """A walk anchored at t=2 from node 1 may only use the t=1 edge."""
        engine = BatchedWalkEngine(path_graph)
        for _ in range(20):
            w = walk(engine, 1, t_context=2.0, length=3, rng=np.random.default_rng(_))
            assert all(t < 2.0 for t in w.edge_times)

    def test_times_non_increasing_along_walk(self, tiny_graph):
        engine = BatchedWalkEngine(tiny_graph)
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = walk(engine, 0, t_context=2018.5, length=6, rng=rng)
            times = w.edge_times
            assert all(times[i] >= times[i + 1] for i in range(len(times) - 1))

    def test_early_termination_when_no_history(self, path_graph):
        """Node 0's only edge is at t=1; anchored at t=1 nothing is usable."""
        engine = BatchedWalkEngine(path_graph)
        w = walk(engine, 0, t_context=1.0, length=5, rng=np.random.default_rng(0))
        assert w.nodes == [0]
        assert w.edge_times == []

    def test_include_context_allows_boundary_edge(self, path_graph):
        engine = BatchedWalkEngine(path_graph)
        w = walk(
            engine, 0, t_context=1.0, length=1, rng=np.random.default_rng(0),
            include_context=True,
        )
        assert w.nodes == [0, 1]

    def test_walk_respects_length_bound(self, tiny_graph):
        engine = BatchedWalkEngine(tiny_graph)
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = walk(engine, 0, t_context=2018.5, length=4, rng=rng)
            assert len(w.nodes) <= 5

    def test_relevance_definition2(self, tiny_graph):
        """Every visited node must reach the start through a time-respecting
        path — guaranteed if walk edges are non-increasing backwards."""
        engine = BatchedWalkEngine(tiny_graph)
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = walk(engine, 0, t_context=2018.5, length=8, rng=rng)
            # reverse the walk: from the far end back to 0, times must be
            # non-decreasing (Definition 2's ordering).
            rev = w.edge_times[::-1]
            assert all(rev[i] <= rev[i + 1] for i in range(len(rev) - 1))


class TestBiasParameters:
    def _backtrack_rate(self, graph, p, seed=0, walks=300):
        engine = BatchedWalkEngine(graph, p=p, q=1.0, decay=0.0)
        rng = np.random.default_rng(seed)
        backtracks = total = 0
        for _ in range(walks):
            w = walk(engine, 0, t_context=2018.5, length=4, rng=rng)
            for i in range(2, len(w.nodes)):
                total += 1
                if w.nodes[i] == w.nodes[i - 2]:
                    backtracks += 1
        return backtracks / max(total, 1)

    def test_small_p_increases_backtracking(self, tiny_graph):
        high_return = self._backtrack_rate(tiny_graph, p=0.05)
        low_return = self._backtrack_rate(tiny_graph, p=20.0)
        assert high_return > low_return

    def test_decay_prefers_recent_edges(self, tiny_graph):
        """With strong decay, walks from node 0 anchored after 2018 should
        overwhelmingly start with the most recent (2018) edge to node 6."""
        strong = BatchedWalkEngine(tiny_graph, decay=50.0)
        weak = BatchedWalkEngine(tiny_graph, decay=0.0)
        rng = np.random.default_rng(3)

        def recent_rate(engine):
            hits = 0
            for _ in range(200):
                w = walk(engine, 0, t_context=2018.5, length=1, rng=rng)
                if len(w.nodes) > 1 and w.nodes[1] == 6:
                    hits += 1
            return hits / 200

        assert recent_rate(strong) > recent_rate(weak) + 0.2

    def test_parameter_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            BatchedWalkEngine(tiny_graph, p=0.0)
        with pytest.raises(ValueError):
            BatchedWalkEngine(tiny_graph, q=-1.0)
        with pytest.raises(ValueError):
            BatchedWalkEngine(tiny_graph, decay=-0.5)


class TestWalkSets:
    def test_walks_count(self, tiny_graph):
        engine = BatchedWalkEngine(tiny_graph)
        ws = engine.temporal(
            np.zeros(5, dtype=int), np.full(5, 2018.5), 3, np.random.default_rng(0)
        )
        assert len(ws) == 5

    def test_walks_deterministic_with_seed(self, tiny_graph):
        engine = BatchedWalkEngine(tiny_graph)
        starts, anchors = np.zeros(4, dtype=int), np.full(4, 2018.5)
        a = engine.temporal(starts, anchors, 5, np.random.default_rng(7))
        b = engine.temporal(starts, anchors, 5, np.random.default_rng(7))
        assert [w.nodes for w in a] == [w.nodes for w in b]

    def test_edge_weights_bias_transitions(self):
        """A heavier parallel edge must attract proportionally more walks."""
        g = TemporalGraph.from_edges(
            np.array([0, 0]), np.array([1, 2]), np.array([1.0, 1.0]),
            np.array([9.0, 1.0]),
        )
        engine = BatchedWalkEngine(g, decay=0.0)
        rng = np.random.default_rng(0)
        to_1 = sum(
            walk(engine, 0, 2.0, 1, rng).nodes[-1] == 1 for _ in range(500)
        )
        assert to_1 / 500 == pytest.approx(0.9, abs=0.05)
