"""The fused aggregation pipeline vs the reference path — the training-math
smoke gate.

``fused_kernels`` swaps the Walk-object batching + stepwise LSTM for the
array-native WalkBatch fast path + single-node BPTT kernel.  The swap is
numerically equivalent, so a full training run must produce the same loss
trajectory — this is the tier-1 gate that keeps perf refactors from silently
changing training math.
"""

import numpy as np
import pytest

from repro.core import EHNA
from repro.datasets import temporal_sbm

FAST = dict(dim=8, epochs=2, batch_size=16, num_walks=3, walk_length=4,
            num_negatives=2)


@pytest.fixture(scope="module")
def graph():
    return temporal_sbm(num_nodes=30, num_edges=150, seed=11)


class TestFusedMatchesReference:
    def test_loss_trajectory_matches(self, graph):
        """Same seed, fused vs reference kernels: the whole per-epoch loss
        history must agree to float noise — walks, padding, LSTM, attention,
        BN and Adam all consume identical numbers on both paths."""
        fused = EHNA(seed=0, fused_kernels=True, **FAST).fit(graph)
        ref = EHNA(seed=0, fused_kernels=False, **FAST).fit(graph)
        np.testing.assert_allclose(
            fused.loss_history, ref.loss_history, rtol=1e-6
        )
        np.testing.assert_allclose(
            fused.embeddings(), ref.embeddings(), atol=1e-6
        )

    def test_grouped_aggregate_forward_identical(self, graph):
        """A single forward through the full routing (temporal + fallback
        groups) is bitwise-equal across the two kernel paths."""
        m_f = EHNA(seed=0, fused_kernels=True, **FAST)
        m_r = EHNA(seed=0, fused_kernels=False, **FAST)
        m_f._build_runtime(graph)
        m_r._build_runtime(graph)
        t_end = graph.time_span[1] + 1.0
        nodes = np.arange(10)
        anchors = [t_end if i % 3 else None for i in range(10)]
        z_f = m_f._grouped_aggregate(nodes, anchors, rng=np.random.default_rng(5))
        z_r = m_r._grouped_aggregate(nodes, anchors, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(z_f.data, z_r.data)

    def test_single_level_ablation_matches(self, graph):
        """EHNA-SL (merged walks, k=1) rides the merged() fast path."""
        cfg = dict(FAST, two_level=False, lstm_layers=1)
        fused = EHNA(seed=0, fused_kernels=True, **cfg).fit(graph)
        ref = EHNA(seed=0, fused_kernels=False, **cfg).fit(graph)
        np.testing.assert_allclose(fused.loss_history, ref.loss_history, rtol=1e-6)

    def test_random_walk_ablation_matches(self, graph):
        """EHNA-RW (temporal_walks=False) routes everything through the
        uniform fast path."""
        cfg = dict(FAST, temporal_walks=False)
        fused = EHNA(seed=0, fused_kernels=True, **cfg).fit(graph)
        ref = EHNA(seed=0, fused_kernels=False, **cfg).fit(graph)
        np.testing.assert_allclose(fused.loss_history, ref.loss_history, rtol=1e-6)


class TestCheckpointConfig:
    def test_checkpoint_roundtrip_preserves_new_config(self, graph, tmp_path):
        m = EHNA(seed=0, fused_kernels=False, parallel_shards=2, **FAST).fit(graph)
        path = m.save(tmp_path / "ehna.npz")
        loaded = EHNA.load(path)
        assert loaded.config == m.config
        assert loaded.config.fused_kernels is False
        assert loaded.config.parallel_shards == 2
        np.testing.assert_array_equal(loaded.embeddings(), m.embeddings())
