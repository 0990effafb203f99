"""Property-based invariants of the walk engines on random temporal graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import TemporalGraph
from repro.walks import BatchedWalkEngine


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    m = draw(st.integers(min_value=2, max_value=25))
    src, dst, time = [], [], []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            v = (v + 1) % n
        src.append(u)
        dst.append(v)
        time.append(draw(st.floats(min_value=0, max_value=100, allow_nan=False)))
    return TemporalGraph.from_edges(
        np.array(src), np.array(dst), np.array(time), num_nodes=n
    )


@given(random_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_temporal_walk_never_uses_future_edges(graph, seed):
    rng = np.random.default_rng(seed)
    t_anchor = float(np.median(graph.time))
    engine = BatchedWalkEngine(graph, p=0.5, q=2.0)
    for start in range(graph.num_nodes):
        w = engine.temporal(np.array([start]), np.array([t_anchor]), 5, rng)[0]
        assert all(t < t_anchor for t in w.edge_times)
        assert all(
            w.edge_times[i] >= w.edge_times[i + 1]
            for i in range(len(w.edge_times) - 1)
        )


@given(random_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_temporal_walk_edges_exist(graph, seed):
    rng = np.random.default_rng(seed)
    engine = BatchedWalkEngine(graph)
    t_anchor = float(graph.time[-1]) + 1.0
    for start in range(graph.num_nodes):
        w = engine.temporal(np.array([start]), np.array([t_anchor]), 4, rng)[0]
        for a, b in zip(w.nodes, w.nodes[1:]):
            assert graph.has_edge(a, b)


@given(random_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_ctdne_walks_time_respecting(graph, seed):
    rng = np.random.default_rng(seed)
    engine = BatchedWalkEngine(graph)
    for _ in range(5):
        e = int(rng.integers(graph.num_edges))
        w = engine.ctdne(np.array([e]), 5, rng)[0]
        assert all(
            w.edge_times[i] <= w.edge_times[i + 1]
            for i in range(len(w.edge_times) - 1)
        )
        for a, b in zip(w.nodes, w.nodes[1:]):
            assert graph.has_edge(a, b)


@given(random_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_uniform_walks_valid(graph, seed):
    rng = np.random.default_rng(seed)
    engine = BatchedWalkEngine(graph)
    for start in range(graph.num_nodes):
        w = engine.uniform(np.array([start]), 4, rng)[0]
        assert w.nodes[0] == start
        for a, b in zip(w.nodes, w.nodes[1:]):
            assert graph.has_edge(a, b)
