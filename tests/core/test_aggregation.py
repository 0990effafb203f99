"""Tests for walk batching and the two-level aggregator (Algorithm 1)."""

import numpy as np
import pytest

from oracles.walks import batch_walks
from repro.core.aggregation import TwoLevelAggregator
from repro.nn import Embedding, check_gradients
from repro.walks import Walk


def identity_scale(t):
    return t / 10.0


class TestBatchWalks:
    def test_padding_shapes(self):
        sets = [
            [Walk([0, 1, 2], [1.0, 2.0]), Walk([3], [])],
            [Walk([4, 5], [3.0]), Walk([6, 7], [4.0])],
        ]
        batch = batch_walks(sets, identity_scale, chronological=False)
        assert batch.ids.shape == (4, 3)
        assert batch.k == 2
        np.testing.assert_array_equal(batch.valid[1], [1.0, 0.0, 0.0])

    def test_chronological_reverses(self):
        sets = [[Walk([0, 1, 2], [5.0, 3.0])]]
        fwd = batch_walks(sets, identity_scale, chronological=False)
        rev = batch_walks(sets, identity_scale, chronological=True)
        np.testing.assert_array_equal(fwd.ids[0], [0, 1, 2])
        np.testing.assert_array_equal(rev.ids[0], [2, 1, 0])
        np.testing.assert_allclose(rev.time_sums[0], fwd.time_sums[0][::-1])

    def test_time_sums_scaled(self):
        sets = [[Walk([0, 1], [10.0])]]
        batch = batch_walks(sets, identity_scale, chronological=False)
        np.testing.assert_allclose(batch.time_sums[0], [1.0, 1.0])

    def test_merge_concatenates(self):
        sets = [[Walk([0, 1], [1.0]), Walk([2, 3], [2.0])]]
        batch = batch_walks(sets, identity_scale, chronological=False, merge=True)
        assert batch.k == 1
        np.testing.assert_array_equal(batch.ids[0], [0, 1, 2, 3])

    def test_merge_does_not_leak_time_across_walks(self):
        sets = [[Walk([0, 1], [10.0]), Walk([1, 2], [10.0])]]
        batch = batch_walks(sets, identity_scale, chronological=False, merge=True)
        # node 1 appears once per walk; each occurrence only sums its own
        # walk's edge times (1.0 after scaling), never both.
        np.testing.assert_allclose(batch.time_sums[0], [1.0, 1.0, 1.0, 1.0])

    def test_rejects_ragged_k(self):
        with pytest.raises(ValueError):
            batch_walks([[Walk([0])], [Walk([1]), Walk([2])]], identity_scale)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            batch_walks([], identity_scale)


def tiny_setup(two_level=True, layers=2, seed=0):
    emb = Embedding(10, 6, rng=seed)
    agg = TwoLevelAggregator(6, lstm_layers=layers, two_level=two_level, rng=seed)
    sets = [
        [Walk([1, 2, 3], [1.0, 2.0]), Walk([4, 5], [3.0])],
        [Walk([6], []), Walk([7, 8, 9], [4.0, 5.0])],
    ]
    targets = np.array([1, 6])
    return emb, agg, sets, targets


class TestAggregator:
    def test_output_shape_and_norm(self):
        emb, agg, sets, targets = tiny_setup()
        batch = batch_walks(sets, identity_scale)
        z = agg(emb, targets, batch)
        assert z.shape == (2, 6)
        np.testing.assert_allclose(
            np.linalg.norm(z.data, axis=1), np.ones(2), atol=1e-9
        )

    def test_single_level_mode(self):
        emb, agg, sets, targets = tiny_setup(two_level=False, layers=1)
        batch = batch_walks(sets, identity_scale, merge=True)
        z = agg(emb, targets, batch)
        assert z.shape == (2, 6)

    def test_single_level_rejects_unmerged(self):
        emb, agg, sets, targets = tiny_setup(two_level=False, layers=1)
        batch = batch_walks(sets, identity_scale, merge=False)
        with pytest.raises(ValueError, match="merged"):
            agg(emb, targets, batch)

    def test_target_count_mismatch_rejected(self):
        emb, agg, sets, targets = tiny_setup()
        batch = batch_walks(sets, identity_scale)
        with pytest.raises(ValueError):
            agg(emb, np.array([1]), batch)

    def test_attention_changes_output(self):
        emb, agg, sets, targets = tiny_setup()
        batch = batch_walks(sets, identity_scale)
        agg.eval()  # freeze BN stats so the comparison is exact
        with_attn = agg(emb, targets, batch, use_attention=True).data
        without = agg(emb, targets, batch, use_attention=False).data
        assert not np.allclose(with_attn, without)

    def test_gradients_reach_everything(self):
        emb, agg, sets, targets = tiny_setup()
        batch = batch_walks(sets, identity_scale)
        z = agg(emb, targets, batch)
        (z * z).sum().backward()
        assert emb.weight.grad is not None
        for p in agg.parameters():
            assert p.grad is not None

    def test_gradcheck_full_pipeline(self):
        """Finite-difference check through attention + LSTMs + BN + readout."""
        emb, agg, sets, targets = tiny_setup(seed=3)
        batch = batch_walks(sets, identity_scale)

        def f():
            z = agg(emb, targets, batch)
            return (z * z * z).sum()  # break symmetry

        params = [emb.weight] + agg.parameters()
        worst = check_gradients(f, params, atol=1e-4, rtol=1e-3)
        assert worst < 1e-4

    def test_padding_rows_do_not_affect_targets_with_real_walks(self):
        """Changing the embedding of a node only seen as padding must not
        change the output (padding id is 0 with attention weight 0)."""
        emb = Embedding(10, 4, rng=1)
        agg = TwoLevelAggregator(4, rng=1)
        agg.eval()
        sets = [[Walk([5, 6], [1.0]), Walk([7, 8, 9], [2.0, 3.0])]]
        targets = np.array([5])
        batch = batch_walks(sets, identity_scale)
        before = agg(emb, targets, batch).data.copy()
        emb.weight.data[0] += 100.0  # node 0 = padding id, not in any walk
        after = agg(emb, targets, batch).data
        np.testing.assert_allclose(before, after, atol=1e-8)
