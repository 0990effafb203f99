"""Tests for the vectorized batched walk engine.

The central contract: with a batch of one walk, the engine consumes the RNG
stream draw-for-draw like the per-node ``*_walk_sequential`` reference loops
of ``tests/oracles/walks.py``, so outputs are bitwise identical under a
fixed seed — for all four walk families.  Plus: batched walks obey the same
structural invariants as sequential ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.walks import (
    ctdne_walk_sequential,
    node2vec_walk_sequential,
    temporal_walk_sequential,
    uniform_walk_sequential,
)
from repro.datasets import load, temporal_sbm
from repro.graph import TemporalGraph
from repro.storage import validate_event_columns
from repro.walks import BatchedWalkEngine


@pytest.fixture(scope="module")
def graph() -> TemporalGraph:
    return load("dblp", scale=0.3, seed=0)


def _rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _one(value):
    """A batch of one."""
    return np.array([value])


def _assert_same_walk(a, b):
    assert a.nodes == b.nodes
    assert a.edge_times == b.edge_times


# ----------------------------------------------------------------------
# batch-size-1 bitwise identity vs. the per-node reference loops
# ----------------------------------------------------------------------
class TestBatchOneBitwiseIdentity:
    def test_temporal(self, graph):
        anchor = graph.time_span[1] + 1.0
        engine = BatchedWalkEngine(graph, p=0.5, q=2.0, decay=1.0)
        for start in range(graph.num_nodes):
            r1, r2 = _rng_pair(start)
            _assert_same_walk(
                temporal_walk_sequential(
                    graph, start, anchor, 8, r1, p=0.5, q=2.0, decay=1.0
                ),
                engine.temporal(_one(start), _one(anchor), 8, r2)[0],
            )
            # the streams must also end in the same state
            assert r1.random() == r2.random()

    def test_temporal_mid_history_anchor(self, graph):
        anchor = float(np.median(graph.time))
        engine = BatchedWalkEngine(graph, p=2.0, q=0.5, decay=0.3)
        for start in range(graph.num_nodes):
            r1, r2 = _rng_pair((start, 1))
            _assert_same_walk(
                temporal_walk_sequential(
                    graph, start, anchor, 6, r1, p=2.0, q=0.5, decay=0.3
                ),
                engine.temporal(_one(start), _one(anchor), 6, r2)[0],
            )
            assert r1.random() == r2.random()

    def test_temporal_include_context(self, graph):
        anchor = float(np.median(graph.time))
        engine = BatchedWalkEngine(graph)
        for start in range(0, graph.num_nodes, 3):
            r1, r2 = _rng_pair(start)
            _assert_same_walk(
                temporal_walk_sequential(
                    graph, start, anchor, 5, r1, include_context=True
                ),
                engine.temporal(
                    _one(start), _one(anchor), 5, r2, include_context=True
                )[0],
            )

    def test_uniform(self, graph):
        engine = BatchedWalkEngine(graph)
        for start in range(graph.num_nodes):
            r1, r2 = _rng_pair(start)
            _assert_same_walk(
                uniform_walk_sequential(graph, start, 7, r1),
                engine.uniform(_one(start), 7, r2)[0],
            )
            assert r1.random() == r2.random()

    def test_node2vec(self, graph):
        engine = BatchedWalkEngine(graph, p=0.5, q=2.0)
        for start in range(graph.num_nodes):
            r1, r2 = _rng_pair(start)
            _assert_same_walk(
                node2vec_walk_sequential(engine, start, 9, r1),
                engine.node2vec(_one(start), 9, r2)[0],
            )
            assert r1.random() == r2.random()

    def test_ctdne(self, graph):
        engine = BatchedWalkEngine(graph)
        for edge in range(graph.num_edges):
            r1, r2 = _rng_pair(edge)
            _assert_same_walk(
                ctdne_walk_sequential(graph, edge, 8, r1),
                engine.ctdne(_one(edge), 8, r2)[0],
            )
            assert r1.random() == r2.random()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_temporal_property(self, seed):
        graph = temporal_sbm(num_nodes=25, num_edges=120, seed=7)
        anchor = float(np.median(graph.time))
        engine = BatchedWalkEngine(graph, p=0.7, q=1.4, decay=2.0)
        start = seed % graph.num_nodes
        r1, r2 = _rng_pair(seed)
        _assert_same_walk(
            temporal_walk_sequential(
                graph, start, anchor, 6, r1, p=0.7, q=1.4, decay=2.0
            ),
            engine.temporal(_one(start), _one(anchor), 6, r2)[0],
        )
        assert r1.random() == r2.random()


# ----------------------------------------------------------------------
# batched invariants
# ----------------------------------------------------------------------
class TestBatchedInvariants:
    def test_temporal_constraints_hold_in_batch(self, graph):
        engine = BatchedWalkEngine(graph, p=0.5, q=2.0)
        anchor = float(np.median(graph.time))
        starts = np.arange(graph.num_nodes)
        walks = engine.temporal(
            starts, np.full(starts.size, anchor), 8, np.random.default_rng(0)
        )
        assert len(walks) == graph.num_nodes
        for start, w in zip(starts, walks):
            assert w.nodes[0] == start
            assert all(t < anchor for t in w.edge_times)
            assert all(
                w.edge_times[i] >= w.edge_times[i + 1]
                for i in range(len(w.edge_times) - 1)
            )
            for a, b in zip(w.nodes, w.nodes[1:]):
                assert graph.has_edge(a, b)

    def test_uniform_walks_stay_on_edges(self, graph):
        engine = BatchedWalkEngine(graph)
        walks = engine.uniform(np.arange(graph.num_nodes), 6, np.random.default_rng(1))
        for w in walks:
            for a, b in zip(w.nodes, w.nodes[1:]):
                assert graph.has_edge(a, b)

    def test_node2vec_walks_stay_on_edges(self, graph):
        engine = BatchedWalkEngine(graph, p=0.25, q=4.0)
        walks = engine.node2vec(np.arange(graph.num_nodes), 8, np.random.default_rng(2))
        for w in walks:
            for a, b in zip(w.nodes, w.nodes[1:]):
                assert graph.has_edge(a, b)

    def test_ctdne_time_respecting_in_batch(self, graph):
        engine = BatchedWalkEngine(graph)
        edges = np.arange(graph.num_edges)
        walks = engine.ctdne(edges, 8, np.random.default_rng(3))
        for e, w in zip(edges, walks):
            assert set(w.nodes[:2]) == {int(graph.src[e]), int(graph.dst[e])}
            assert all(
                w.edge_times[i] <= w.edge_times[i + 1]
                for i in range(len(w.edge_times) - 1)
            )

    def test_batched_deterministic_given_seed(self, graph):
        engine = BatchedWalkEngine(graph, p=0.5, q=2.0)
        anchor = graph.time_span[1] + 1.0
        starts = np.arange(graph.num_nodes)
        anchors = np.full(starts.size, anchor)
        a = engine.temporal(starts, anchors, 6, np.random.default_rng(9))
        b = engine.temporal(starts, anchors, 6, np.random.default_rng(9))
        assert [w.nodes for w in a] == [w.nodes for w in b]

    def test_mixed_weight_scales_do_not_starve_tiny_walks(self):
        """A walk with tiny weights must survive huge-weight batch neighbors.

        Regression test: differencing one cumsum shared by the whole batch
        for segment totals cancels catastrophically when a segment's weights
        are ~20 orders of magnitude below the batch prefix, spuriously
        terminating the walk.  Row-local prefix sums rule this out.
        """
        g = TemporalGraph.from_edges(
            np.array([0, 0, 2, 2]),
            np.array([1, 1, 3, 3]),
            np.array([1.0, 2.0, 1.0, 2.0]),
            np.array([1e20, 1e20, 1e-8, 2e-8]),
        )
        engine = BatchedWalkEngine(g, decay=0.0)
        walks = engine.temporal(
            np.array([0, 2]), np.array([3.0, 3.0]), 3, np.random.default_rng(0)
        )
        assert len(walks[0].nodes) > 1
        assert len(walks[1].nodes) > 1  # the tiny-weight walk keeps walking

    def test_isolated_nodes_terminate_immediately(self):
        g = TemporalGraph.from_edges(
            np.array([0]), np.array([1]), np.array([1.0]), num_nodes=4
        )
        engine = BatchedWalkEngine(g)
        walks = engine.uniform(np.array([2, 3]), 5, np.random.default_rng(0))
        assert [w.nodes for w in walks] == [[2], [3]]
        walks = engine.temporal(
            np.array([2, 0]), np.array([5.0, 5.0]), 5, np.random.default_rng(0)
        )
        assert walks[0].nodes == [2]
        assert walks[1].nodes[:2] == [0, 1]

    def test_adjacency_survives_a_new_node_id_in_place(self, graph):
        """An ``extend_in_place`` that brings in a new node id grows the
        graph at once; the engine built before it must still see every edge
        it was built over as adjacent (Eq. 2's bias), until it is rebuilt."""
        g = graph.copy()
        engine = BatchedWalkEngine(g)
        src, dst = g.src.astype(np.int64), g.dst.astype(np.int64)
        assert engine._adjacent(src, dst).all()
        new_id = g.num_nodes + 5
        g.extend_in_place(
            validate_event_columns(np.array([0]), np.array([new_id]), np.array([g.time[-1] + 1.0]))
        )
        assert g.num_nodes > new_id
        assert engine._adjacent(src, dst).all()
        assert engine._adjacent(dst, src).all()
        assert not engine._adjacent(src[:1], np.array([src[0]])).any()
