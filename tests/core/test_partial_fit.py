"""Tests for partial_fit incremental training (protocol v2)."""

import numpy as np
import pytest

from repro.baselines import CTDNE, HTNE, LINE, Node2Vec
from repro.base import parse_edge_batch
from repro.core import EHNA
from repro.datasets import temporal_sbm
from repro.storage import validate_event_columns

FAST = dict(dim=8, epochs=1, batch_size=32, num_walks=2, walk_length=3,
            num_negatives=2)


@pytest.fixture()
def graph():
    return temporal_sbm(num_nodes=25, num_edges=100, seed=7)


def future_edges(graph, count, seed=0, new_nodes=False):
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    src = rng.integers(0, n, size=count)
    if new_nodes:
        dst = n + rng.integers(0, 10, size=count)  # ids beyond the current space
    else:
        dst = (src + 1 + rng.integers(0, n - 1, size=count)) % n
    t_hi = graph.time_span[1]
    times = t_hi + 1.0 + np.arange(count, dtype=float)
    return src, dst, times


class TestParseEdgeBatch:
    def test_tuple_of_arrays(self):
        batch = parse_edge_batch(([0, 1], [2, 3], [1.0, 2.0]))
        np.testing.assert_array_equal(batch.weight, [1.0, 1.0])  # unit weights
        np.testing.assert_array_equal(batch.dst, [2, 3])

    def test_tuple_with_weights(self):
        batch = parse_edge_batch(([0], [2], [1.0], [3.0]))
        np.testing.assert_array_equal(batch.weight, [3.0])

    def test_row_matrix(self):
        batch = parse_edge_batch(np.array([[0, 2, 1.5], [1, 3, 2.5]]))
        assert batch.src.dtype == np.int64
        np.testing.assert_array_equal(batch.src, [0, 1])
        np.testing.assert_array_equal(batch.time, [1.5, 2.5])
        np.testing.assert_array_equal(batch.weight, [1.0, 1.0])

    def test_row_matrix_with_weights(self):
        batch = parse_edge_batch(np.array([[0, 2, 1.5, 2.0]]))
        np.testing.assert_array_equal(batch.weight, [2.0])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="edges"):
            parse_edge_batch(np.zeros((3, 5)))

    def test_list_of_three_rows_parses_as_rows(self):
        # A 3-row batch must not be mistaken for three column arrays
        # (columns are tuple-only); same for a 4-row batch vs. weights.
        batch = parse_edge_batch([(0, 1, 5.0), (2, 3, 6.0), (4, 5, 7.0)])
        np.testing.assert_array_equal(batch.src, [0, 2, 4])
        np.testing.assert_array_equal(batch.dst, [1, 3, 5])
        np.testing.assert_array_equal(batch.time, [5.0, 6.0, 7.0])
        np.testing.assert_array_equal(batch.weight, [1.0, 1.0, 1.0])

    def test_bad_tuple_length_rejected(self):
        with pytest.raises(ValueError, match="tuple"):
            parse_edge_batch((np.array([0]), np.array([1])))

    def test_list_of_column_arrays_rejected(self):
        # Columns mistyped as a list must error, not transpose into "rows".
        cols = [np.array([1, 2, 3]), np.array([4, 5, 6]), np.array([0.1, 0.2, 0.3])]
        with pytest.raises(ValueError, match="ambiguous"):
            parse_edge_batch(cols)


class TestEHNAPartialFit:
    def test_before_fit_raises(self, graph):
        with pytest.raises(RuntimeError, match="fit"):
            EHNA(**FAST).partial_fit(([0], [1], [1.0]))

    def test_extends_graph_and_stays_finite(self, graph):
        model = EHNA(seed=0, **FAST).fit(graph)
        model.partial_fit(future_edges(graph, 15))
        assert model.graph.num_edges == graph.num_edges + 15
        emb = model.embeddings()
        assert emb.shape == (graph.num_nodes, FAST["dim"])
        assert np.all(np.isfinite(emb))
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)

    def test_updates_change_embeddings(self, graph):
        model = EHNA(seed=0, **FAST).fit(graph)
        before = model.embeddings().copy()
        model.partial_fit(future_edges(graph, 15))
        assert not np.array_equal(before, model.embeddings())

    def test_new_nodes_grow_table(self, graph):
        model = EHNA(seed=0, **FAST).fit(graph)
        model.partial_fit(future_edges(graph, 5, new_nodes=True))
        assert model.graph.num_nodes > graph.num_nodes
        assert model.embeddings().shape[0] == model.graph.num_nodes

    def test_loss_history_extended(self, graph):
        model = EHNA(seed=0, **FAST).fit(graph)
        before = len(model.loss_history)
        model.partial_fit(future_edges(graph, 15), epochs=2)
        assert len(model.loss_history) == before + 2

    def test_encode_fast_path_tracks_new_table(self, graph):
        model = EHNA(seed=0, **FAST).fit(graph)
        model.partial_fit(future_edges(graph, 15))
        nodes = np.arange(model.graph.num_nodes)
        np.testing.assert_array_equal(model.encode(nodes), model.embeddings())

    def test_empty_batch_is_noop(self, graph):
        model = EHNA(seed=0, **FAST).fit(graph)
        before = model.embeddings().copy()
        model.partial_fit((np.empty(0, int), np.empty(0, int), np.empty(0)))
        np.testing.assert_array_equal(before, model.embeddings())

    def test_returns_self(self, graph):
        model = EHNA(seed=0, **FAST).fit(graph)
        assert model.partial_fit(future_edges(graph, 5)) is model

    def test_previous_graph_object_untouched(self, graph):
        model = EHNA(seed=0, **FAST).fit(graph)
        before = model.graph
        model.partial_fit(future_edges(graph, 5))
        assert model.graph is not before
        assert before.num_edges == graph.num_edges == 100
        assert model.graph.num_edges == 105

    def test_buffered_events_are_trained_with_the_batch(self, graph, monkeypatch):
        """Events buffered through extend_in_place before a partial_fit(edges)
        are claimed and trained on with the batch, not silently dropped."""
        model = EHNA(seed=0, **FAST).fit(graph)
        seen = []
        apply = model._apply_partial_fit

        def spy(g, fresh, epochs):
            seen.append(fresh.copy())
            apply(g, fresh, epochs)

        monkeypatch.setattr(model, "_apply_partial_fit", spy)
        src, dst, times = future_edges(graph, 8)
        model.graph.extend_in_place(validate_event_columns(src[:5], dst[:5], times[:5]))
        model.partial_fit((src[5:], dst[5:], times[5:]))
        assert len(seen) == 1
        assert seen[0].size == 8
        np.testing.assert_array_equal(np.sort(model.graph.time[seen[0]]), times)
        assert model.graph.take_fresh().size == 0


class TestBaselinePartialFit:
    @pytest.mark.parametrize("cls,kw", [
        (Node2Vec, dict(num_walks=2, walk_length=6, epochs=1)),
        (CTDNE, dict(walks_per_node=2, walk_length=6, epochs=1)),
        (LINE, dict(samples_per_edge=2)),
        (HTNE, dict(epochs=1)),
    ])
    def test_stream_updates(self, cls, kw, graph):
        model = cls(dim=8, seed=0, **kw).fit(graph)
        before = model.embeddings().copy()
        model.partial_fit(future_edges(graph, 15))
        assert model.graph.num_edges == graph.num_edges + 15
        emb = model.embeddings()
        assert np.all(np.isfinite(emb))
        assert not np.array_equal(before, emb)

    @pytest.mark.parametrize("cls,kw", [
        (Node2Vec, dict(num_walks=2, walk_length=6, epochs=1)),
        (CTDNE, dict(walks_per_node=2, walk_length=6, epochs=1)),
        (LINE, dict(samples_per_edge=2)),
        (HTNE, dict(epochs=1)),
    ])
    def test_new_nodes_grow_table(self, cls, kw, graph):
        model = cls(dim=8, seed=0, **kw).fit(graph)
        model.partial_fit(future_edges(graph, 5, new_nodes=True))
        assert model.embeddings().shape[0] == model.graph.num_nodes
        assert model.graph.num_nodes > graph.num_nodes
