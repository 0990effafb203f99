"""Tests for time-anchored encode() (protocol v2)."""

import numpy as np
import pytest

from repro.baselines import LINE, Node2Vec
from repro.core import EHNA
from repro.datasets import temporal_sbm

FAST = dict(dim=8, epochs=1, batch_size=32, num_walks=2, walk_length=3,
            num_negatives=2)
NODE2VEC_FAST = dict(dim=8, epochs=1, num_walks=2, walk_length=4)


@pytest.fixture(scope="module")
def graph():
    return temporal_sbm(num_nodes=30, num_edges=120, seed=11)


@pytest.fixture(scope="module")
def fitted(graph):
    return EHNA(seed=0, **FAST).fit(graph)


class TestEHNAEncode:
    def test_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            EHNA(**FAST).encode([0])

    def test_default_anchor_equals_embeddings_exactly(self, fitted, graph):
        nodes = np.arange(graph.num_nodes)
        np.testing.assert_array_equal(fitted.encode(nodes), fitted.embeddings())

    def test_last_event_anchor_equals_embeddings_exactly(self, fitted, graph):
        nodes = np.arange(graph.num_nodes)
        anchors = [graph.last_event_time(int(v)) for v in nodes]
        np.testing.assert_array_equal(
            fitted.encode(nodes, at=anchors), fitted.embeddings()
        )

    def test_subset_and_order_preserved(self, fitted):
        nodes = np.array([7, 3, 3, 0])
        out = fitted.encode(nodes)
        np.testing.assert_array_equal(out, fitted.embeddings()[nodes])

    def test_scalar_anchor_broadcasts(self, fitted, graph):
        t_mid = 0.5 * sum(graph.time_span)
        out = fitted.encode([0, 1, 2], at=t_mid)
        assert out.shape == (3, FAST["dim"])
        assert np.all(np.isfinite(out))

    def test_live_anchors_unit_norm(self, fitted, graph):
        t_mid = 0.5 * sum(graph.time_span)
        out = fitted.encode(np.arange(10), at=t_mid)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_live_encode_deterministic(self, fitted, graph):
        t_mid = 0.5 * sum(graph.time_span)
        a = fitted.encode(np.arange(6), at=t_mid)
        b = fitted.encode(np.arange(6), at=t_mid)
        np.testing.assert_array_equal(a, b)

    def test_encode_does_not_consume_training_rng(self, fitted, graph):
        state = fitted._rng.bit_generator.state["state"]
        fitted.encode(np.arange(6), at=0.5 * sum(graph.time_span))
        assert fitted._rng.bit_generator.state["state"] == state

    def test_anchor_changes_embedding(self, graph):
        """Early vs. late anchors see different histories for active nodes."""
        model = EHNA(seed=1, **FAST).fit(graph)
        lo, hi = graph.time_span
        busy = int(np.argmax(graph.degrees()))
        early = model.encode([busy], at=lo + 0.1 * (hi - lo))
        late = model.encode([busy], at=hi)
        assert not np.array_equal(early, late)

    def test_mixed_fast_and_live_rows(self, fitted, graph):
        nodes = np.array([0, 1, 2])
        anchors = [
            graph.last_event_time(0),  # fast path
            0.5 * sum(graph.time_span),  # live
            graph.last_event_time(2),  # fast path
        ]
        out = fitted.encode(nodes, at=anchors)
        emb = fitted.embeddings()
        np.testing.assert_array_equal(out[0], emb[0])
        np.testing.assert_array_equal(out[2], emb[2])
        assert np.all(np.isfinite(out[1]))

    def test_none_anchor_entry_uses_fallback(self, fitted):
        out = fitted.encode([0, 1], at=[None, None])
        assert np.all(np.isfinite(out))

    def test_scalar_node(self, fitted):
        out = fitted.encode(3)
        assert out.shape == (1, FAST["dim"])

    def test_anchor_length_mismatch_rejected(self, fitted):
        with pytest.raises(ValueError, match="anchor"):
            fitted.encode([0, 1, 2], at=[1.0, 2.0])


class TestBaselineEncode:
    """Time-invariant methods serve their table for any anchor."""

    @pytest.mark.parametrize("cls,kw", [
        (Node2Vec, dict(num_walks=2, walk_length=6, epochs=1)),
        (LINE, dict(samples_per_edge=2)),
    ])
    def test_table_served_regardless_of_anchor(self, cls, kw, graph):
        model = cls(dim=8, seed=0, **kw).fit(graph)
        emb = model.embeddings()
        np.testing.assert_array_equal(model.encode([0, 5], at=123.0), emb[[0, 5]])
        np.testing.assert_array_equal(model.encode([0, 5]), emb[[0, 5]])

    def test_anchor_spec_still_validated(self, graph):
        model = LINE(dim=8, seed=0, samples_per_edge=2).fit(graph)
        with pytest.raises(ValueError, match="anchor"):
            model.encode([0, 1, 2], at=[1.0])


class TestMalformedNodeIds:
    """Every ``encode`` path rejects a bad node id with a ValueError naming
    it, at the default anchor and at a past one."""

    CASES = [
        ([0.5], r"node id 0\.5 is not an integer"),
        ([-1], r"node id -1 is negative"),
        ([30], r"node id 30 has no embedding row"),  # == num_nodes
    ]

    @pytest.fixture(scope="class")
    def models(self, graph, fitted):
        return {"EHNA": fitted, "Node2Vec": Node2Vec(seed=0, **NODE2VEC_FAST).fit(graph)}

    @pytest.mark.parametrize("name", ["EHNA", "Node2Vec"])
    @pytest.mark.parametrize("past", [False, True])
    @pytest.mark.parametrize("ids,match", CASES)
    def test_rejected_with_the_id(self, models, graph, name, past, ids, match):
        at = 0.5 * sum(graph.time_span) if past else None
        with pytest.raises(ValueError, match=match):
            models[name].encode([1, *ids], at=None if at is None else [at, at])

    @pytest.mark.parametrize("past", [False, True])
    def test_service_rejects_a_node_not_yet_absorbed(self, graph, past):
        from repro.stream import OnlineService

        svc = OnlineService(EHNA(seed=0, **FAST).fit(graph))
        new = graph.num_nodes + 1
        svc.ingest(([0], [new], [graph.time_span[1]]))
        assert svc.graph.num_nodes == new + 1  # the graph knows it ...
        at = 0.5 * sum(graph.time_span) if past else None
        with pytest.raises(ValueError, match=f"node id {new} has no embedding row"):
            svc.encode([new], at=at)  # ... the table does not yet
        svc.absorb()
        assert svc.encode([new], at=at).shape == (1, FAST["dim"])

    def test_integral_floats_are_ids(self, fitted):
        np.testing.assert_array_equal(
            fitted.encode(np.array([3.0, 0.0])), fitted.encode([3, 0])
        )
