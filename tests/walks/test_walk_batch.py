"""Array-native WalkBatch fast path vs the Walk-object reference pipeline.

``BatchedWalkEngine.temporal_walk_batch`` / ``uniform_walk_batch`` must
produce *bitwise* the same padded arrays as sampling ``Walk`` sets and
padding them through the ``batch_walks`` oracle (``tests/oracles/walks.py``)
— same RNG draws, same [0, 1] time scaling, same time-sum accumulation
order, same reversal and zero padding — for every layout (chronological or
not, with or without context, two-level or merged).
"""

import numpy as np
import pytest

from oracles.walks import batch_walks, temporal_walk_sets, uniform_walk_sets
from repro.datasets import temporal_sbm
from repro.walks.base import Walk, WalkBatch
from repro.walks.engine import BatchedWalkEngine

K, LENGTH = 4, 6


@pytest.fixture(scope="module")
def graph():
    return temporal_sbm(num_nodes=40, num_edges=300, seed=5)


@pytest.fixture(scope="module")
def engine(graph):
    return BatchedWalkEngine(graph, p=0.5, q=2.0, decay=1.0)


def _assert_batches_equal(ref: WalkBatch, fast: WalkBatch):
    np.testing.assert_array_equal(ref.ids, fast.ids)
    np.testing.assert_array_equal(ref.valid, fast.valid)
    np.testing.assert_array_equal(ref.time_sums, fast.time_sums)
    assert ref.k == fast.k


class TestTemporalWalkBatch:
    @pytest.mark.parametrize("chronological", [True, False])
    @pytest.mark.parametrize("include_context", [True, False])
    def test_bitwise_equals_reference(self, graph, engine, chronological, include_context):
        nodes = np.arange(30)
        anchors = np.full(nodes.size, graph.time_span[1] + 1.0)
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        sets = temporal_walk_sets(
            engine, nodes, anchors, K, LENGTH, r1,
            include_context=include_context,
        )
        ref = batch_walks(sets, graph.scale_time, chronological=chronological)
        fast = engine.temporal_walk_batch(
            nodes, anchors, K, LENGTH, r2,
            include_context=include_context, chronological=chronological,
        )
        _assert_batches_equal(ref, fast)
        # Both paths consumed the RNG stream identically.
        assert r1.random() == r2.random()

    def test_mixed_anchors_and_short_history(self, graph, engine):
        """Anchors early in the timeline give short/length-1 walks; the fast
        path must pad and zero them exactly like the reference."""
        lo, hi = graph.time_span
        nodes = np.arange(20)
        anchors = np.linspace(lo - 1.0, hi + 1.0, nodes.size)
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        sets = temporal_walk_sets(engine, nodes, anchors, K, LENGTH, r1)
        ref = batch_walks(sets, graph.scale_time)
        fast = engine.temporal_walk_batch(nodes, anchors, K, LENGTH, r2)
        _assert_batches_equal(ref, fast)

    def test_merged_layout(self, graph, engine):
        """WalkBatch.merged() == batch_walks(..., merge=True) (EHNA-SL)."""
        nodes = np.arange(15)
        anchors = np.full(nodes.size, graph.time_span[1] + 1.0)
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        sets = temporal_walk_sets(engine, nodes, anchors, K, LENGTH, r1)
        ref = batch_walks(sets, graph.scale_time, merge=True)
        fast = engine.temporal_walk_batch(nodes, anchors, K, LENGTH, r2).merged()
        _assert_batches_equal(ref, fast)

    def test_take_targets_matches_subset_padding(self, graph, engine):
        """Selecting targets re-trims exactly like batch_walks on the subset."""
        nodes = np.arange(30)
        anchors = np.full(nodes.size, graph.time_span[1] + 1.0)
        keep = np.array([0, 3, 17, 29])
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        sets = temporal_walk_sets(engine, nodes, anchors, K, LENGTH, r1)
        ref = batch_walks([sets[i] for i in keep], graph.scale_time)
        fast = engine.temporal_walk_batch(nodes, anchors, K, LENGTH, r2)
        _assert_batches_equal(ref, fast.take_targets(keep))


class TestUniformWalkBatch:
    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_bitwise_equals_reference(self, graph, engine, length):
        nodes = np.arange(25)
        r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
        sets = uniform_walk_sets(engine, nodes, K, length, r1)
        ref = batch_walks(sets, graph.scale_time)
        fast = engine.uniform_walk_batch(nodes, K, length, r2)
        _assert_batches_equal(ref, fast)
        assert r1.random() == r2.random()

    def test_static_batches_have_zero_time_sums(self, engine):
        fast = engine.uniform_walk_batch(np.arange(10), K, 3, np.random.default_rng(0))
        assert np.all(fast.time_sums == 0.0)


class TestWalkBatchHelpers:
    def test_row_lengths(self):
        batch = batch_walks(
            [[Walk([1, 2, 3], [5.0, 6.0]), Walk([4])]], lambda t: t
        )
        np.testing.assert_array_equal(batch.row_lengths(), [3, 1])

    def test_merged_single_target(self):
        batch = batch_walks(
            [[Walk([1, 2], [5.0]), Walk([3, 4, 5], [6.0, 7.0])]],
            lambda t: t,
            chronological=False,
        )
        merged = batch.merged()
        assert merged.k == 1
        np.testing.assert_array_equal(merged.ids, [[1, 2, 3, 4, 5]])
        np.testing.assert_array_equal(merged.valid, [[1.0] * 5])

    def test_padding_slots_are_zero(self, graph, engine):
        nodes = np.arange(12)
        anchors = np.full(nodes.size, graph.time_span[1] + 1.0)
        fast = engine.temporal_walk_batch(
            nodes, anchors, K, LENGTH, np.random.default_rng(1)
        )
        pad = fast.valid == 0.0
        assert np.all(fast.ids[pad] == 0)
        assert np.all(fast.time_sums[pad] == 0.0)
