"""The precision policy at the model layer.

The float64 default is pinned bitwise by the existing legacy-equivalence,
fused-kernel and walk-engine suites; these tests validate the *fast* mode:
config validation, float32 training end to end, loss-trajectory agreement
with the reference mode within the policy's documented bound, float32
walk-batch narrowing, checkpoint precision roundtrips and the documented
mismatch errors, and policy propagation through every baseline."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.base import EmbeddingMethod
from repro.baselines import CTDNE, HTNE, LINE, DeepWalk, Node2Vec
from repro.core import EHNA, EHNAConfig
from repro.datasets import temporal_sbm
from repro.nn import FLOAT32, UnknownPrecisionError
from repro.utils.checkpoint import CheckpointError, save_checkpoint
from repro.walks.engine import BatchedWalkEngine


@pytest.fixture(scope="module")
def graph():
    return temporal_sbm(num_nodes=40, num_edges=260, num_communities=4, seed=11)


FAST = dict(dim=12, epochs=2, batch_size=16, num_walks=3, walk_length=4, seed=0)


class TestConfigValidation:
    def test_default_is_float64(self):
        assert EHNAConfig().precision == "float64"

    def test_valid_precisions_accepted(self):
        EHNAConfig(precision="float32").validate()
        EHNAConfig(precision="float64").validate()

    def test_unknown_precision_rejected_listing_valid_values(self):
        with pytest.raises(UnknownPrecisionError) as err:
            EHNAConfig(precision="bfloat16").validate()
        message = str(err.value)
        assert "bfloat16" in message
        assert "float64" in message and "float32" in message

    def test_ehna_constructor_validates_precision(self):
        with pytest.raises(UnknownPrecisionError):
            EHNA(precision="half")


class TestFloat32Training:
    def test_fit_produces_float32_state(self, graph):
        model = EHNA(precision="float32", **FAST).fit(graph)
        assert model.embeddings().dtype == np.float32
        assert model.embedding.weight.dtype == np.float32
        for p in model.aggregator.parameters():
            assert p.dtype == np.float32
        assert all(np.isfinite(loss) for loss in model.loss_history)

    def test_loss_trajectory_tracks_float64_within_policy_bound(self, graph):
        """Walk sampling and negative draws stay float64, so both modes train
        on identical batches/neighborhoods — the trajectories differ only by
        accumulated rounding, bounded by the policy's documented loss_rtol."""
        f64 = EHNA(precision="float64", **FAST).fit(graph)
        f32 = EHNA(precision="float32", **FAST).fit(graph)
        a, b = np.asarray(f64.loss_history), np.asarray(f32.loss_history)
        np.testing.assert_allclose(a, b, rtol=FLOAT32.loss_rtol)

    def test_encode_returns_policy_dtype_at_arbitrary_anchors(self, graph):
        model = EHNA(precision="float32", **FAST).fit(graph)
        mid = (graph.time_span[0] + graph.time_span[1]) / 2.0
        out = model.encode(np.arange(6), at=mid)
        assert out.dtype == np.float32
        assert np.isfinite(out).all()

    def test_partial_fit_keeps_policy_dtype(self, graph):
        model = EHNA(precision="float32", **FAST).fit(graph)
        hi = graph.time_span[1]
        n = graph.num_nodes
        edges = (
            np.array([0, 1, n]),  # includes a brand-new node id
            np.array([2, n, 3]),
            np.array([hi + 1.0, hi + 2.0, hi + 3.0]),
        )
        model.partial_fit(edges, epochs=1)
        assert model.embedding.weight.dtype == np.float32
        assert model.embeddings().dtype == np.float32
        assert model.embeddings().shape[0] == n + 1


class TestWalkBatchNarrowing:
    def test_float32_engine_halves_walk_batch_bytes(self, graph):
        nodes = np.arange(20)
        anchors = np.full(nodes.size, graph.time_span[1] + 1.0)
        e64 = BatchedWalkEngine(graph)
        e32 = BatchedWalkEngine(graph, real_dtype=np.float32)
        b64 = e64.temporal_walk_batch(nodes, anchors, 4, 6, np.random.default_rng(0))
        b32 = e32.temporal_walk_batch(nodes, anchors, 4, 6, np.random.default_rng(0))
        assert b64.ids.dtype == graph.index_dtype  # int32 on this graph
        assert b32.valid.dtype == np.float32
        assert b32.time_sums.dtype == np.float32
        # Same walks (same RNG stream), half the float bytes.
        np.testing.assert_array_equal(b64.ids, b32.ids)
        np.testing.assert_allclose(b64.time_sums, b32.time_sums, rtol=1e-6)
        assert b32.nbytes < b64.nbytes
        float_bytes32 = b32.valid.nbytes + b32.time_sums.nbytes
        float_bytes64 = b64.valid.nbytes + b64.time_sums.nbytes
        assert float_bytes32 * 2 == float_bytes64

    def test_merged_and_take_targets_preserve_policy_dtypes(self, graph):
        nodes = np.arange(8)
        anchors = np.full(nodes.size, graph.time_span[1] + 1.0)
        e32 = BatchedWalkEngine(graph, real_dtype=np.float32)
        batch = e32.temporal_walk_batch(nodes, anchors, 3, 4, np.random.default_rng(1))
        sub = batch.take_targets(np.array([0, 2, 5]))
        merged = batch.merged()
        for b in (sub, merged):
            assert b.ids.dtype == batch.ids.dtype
            assert b.valid.dtype == np.float32
            assert b.time_sums.dtype == np.float32


class TestCheckpointPrecision:
    def test_float32_roundtrip_encode_matches(self, tmp_path, graph):
        model = EHNA(precision="float32", **FAST).fit(graph)
        nodes = np.arange(10)
        mid = (graph.time_span[0] + graph.time_span[1]) / 2.0
        before_table = model.embeddings().copy()
        before_live = model.encode(nodes, at=mid)
        path = model.save(tmp_path / "f32.npz")

        loaded = EHNA.load(path)
        assert loaded.config.precision == "float32"
        assert loaded.embeddings().dtype == np.float32
        np.testing.assert_array_equal(loaded.embeddings(), before_table)
        # encode is deterministic from the checkpointed inference seed, so
        # the reloaded model re-encodes bit for bit.
        np.testing.assert_array_equal(loaded.encode(nodes, at=mid), before_live)

    def test_precision_recorded_in_header(self, tmp_path, graph):
        from repro.utils.checkpoint import load_checkpoint

        model = EHNA(precision="float32", **FAST).fit(graph)
        path = model.save(tmp_path / "hdr.npz")
        assert load_checkpoint(path).precision == "float32"
        f64 = EHNA(**FAST).fit(graph)
        assert load_checkpoint(f64.save(tmp_path / "hdr64.npz")).precision == "float64"

    def test_requesting_other_precision_raises_documented_error(self, tmp_path, graph):
        model = EHNA(precision="float32", **FAST).fit(graph)
        path = model.save(tmp_path / "mismatch.npz")
        with pytest.raises(CheckpointError, match="float32.*float64"):
            EHNA.load(path, precision="float64")
        f64 = EHNA(**FAST).fit(graph)
        path64 = f64.save(tmp_path / "mismatch64.npz")
        with pytest.raises(CheckpointError, match="float64.*float32"):
            EmbeddingMethod.load(path64, precision="float32")
        # Requesting the recorded precision loads fine.
        assert EHNA.load(path, precision="float32").config.precision == "float32"

    def test_inconsistent_archive_is_refused(self, tmp_path, graph):
        """A header whose precision disagrees with its own config (a
        hand-edited or corrupted archive) must not load."""
        model = EHNA(precision="float32", **FAST).fit(graph)
        arrays, meta = model._state_dict()
        arrays = dict(arrays)
        meta = dict(meta)
        from repro.utils.checkpoint import rng_state

        meta["name"] = model.name
        meta["rng_state"] = rng_state(model._rng)
        arrays["graph/src"] = graph.src
        arrays["graph/dst"] = graph.dst
        arrays["graph/time"] = graph.time
        arrays["graph/weight"] = graph.weight
        meta["graph_num_nodes"] = graph.num_nodes
        path = save_checkpoint(
            tmp_path / "tampered.npz",
            "EHNA",
            dataclasses.asdict(model.config),  # says float32 ...
            arrays,
            meta,
            precision="float64",  # ... header claims float64
        )
        with pytest.raises(CheckpointError, match="inconsistent"):
            EHNA.load(path)


class TestBaselinePolicy:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Node2Vec(dim=8, num_walks=2, walk_length=6, epochs=1, seed=0, precision="float32"),
            lambda: DeepWalk(dim=8, num_walks=2, walk_length=6, epochs=1, seed=0, precision="float32"),
            lambda: CTDNE(dim=8, walks_per_node=2, walk_length=6, epochs=1, seed=0, precision="float32"),
            lambda: LINE(dim=8, samples_per_edge=2, seed=0, precision="float32"),
            lambda: HTNE(dim=8, epochs=1, seed=0, precision="float32"),
        ],
        ids=["Node2Vec", "DeepWalk", "CTDNE", "LINE", "HTNE"],
    )
    def test_baseline_trains_and_checkpoints_in_float32(self, factory, graph, tmp_path):
        model = factory().fit(graph)
        emb = model.embeddings()
        assert emb.dtype == np.float32
        assert np.isfinite(emb).all()
        path = model.save(tmp_path / f"{model.name}.npz")
        loaded = type(model).load(path)
        np.testing.assert_array_equal(loaded.embeddings(), emb)
        assert loaded.embeddings().dtype == np.float32
        with pytest.raises(CheckpointError):
            type(model).load(path, precision="float64")

    def test_baseline_rejects_unknown_precision(self):
        for klass in (Node2Vec, CTDNE, LINE, HTNE):
            with pytest.raises(UnknownPrecisionError):
                klass(precision="quad")
