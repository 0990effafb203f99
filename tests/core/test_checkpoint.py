"""Tests for save()/load() checkpointing (protocol v2)."""

import json

import numpy as np
import pytest

from repro.base import EmbeddingMethod
from repro.baselines import CTDNE, HTNE, LINE, DeepWalk, Node2Vec
from repro.core import EHNA
from repro.datasets import temporal_sbm
from repro.utils.checkpoint import (
    FORMAT,
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

FAST = dict(dim=8, epochs=1, batch_size=32, num_walks=2, walk_length=3,
            num_negatives=2)


@pytest.fixture(scope="module")
def graph():
    return temporal_sbm(num_nodes=25, num_edges=100, seed=7)


@pytest.fixture(scope="module")
def fitted_ehna(graph):
    return EHNA(seed=0, **FAST).fit(graph)


def _add_config_key(path, out, key, value) -> dict:
    """Rewrite the checkpoint at ``path`` to ``out`` with ``key: value`` in
    its config header, as a checkpoint written by an older ``EHNAConfig``
    carries it; returns the rewritten config."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {name: archive[name] for name in archive.files}
    header = json.loads(str(payload["__checkpoint_header__"]))
    header["config"][key] = value
    payload["__checkpoint_header__"] = np.asarray(json.dumps(header))
    np.savez(out, **payload)
    return header["config"]


class TestEHNARoundtrip:
    def test_embeddings_bitwise_identical(self, fitted_ehna, tmp_path):
        path = fitted_ehna.save(tmp_path / "m.npz")
        loaded = EHNA.load(path)
        np.testing.assert_array_equal(loaded.embeddings(), fitted_ehna.embeddings())

    def test_encode_at_time_bitwise_identical(self, fitted_ehna, graph, tmp_path):
        path = fitted_ehna.save(tmp_path / "m.npz")
        loaded = EHNA.load(path)
        nodes = np.arange(graph.num_nodes)
        for t in (0.25 * graph.time_span[1], graph.time_span[1] + 5.0):
            np.testing.assert_array_equal(
                loaded.encode(nodes, at=t), fitted_ehna.encode(nodes, at=t)
            )

    def test_config_and_history_roundtrip(self, fitted_ehna, tmp_path):
        path = fitted_ehna.save(tmp_path / "m.npz")
        loaded = EHNA.load(path)
        assert loaded.config == fitted_ehna.config
        assert loaded.loss_history == pytest.approx(fitted_ehna.loss_history)
        assert loaded.name == fitted_ehna.name

    def test_graph_roundtrip(self, fitted_ehna, graph, tmp_path):
        path = fitted_ehna.save(tmp_path / "m.npz")
        loaded = EHNA.load(path)
        assert loaded.graph.num_nodes == graph.num_nodes
        np.testing.assert_array_equal(loaded.graph.src, graph.src)
        np.testing.assert_array_equal(loaded.graph.time, graph.time)

    def test_loaded_model_can_partial_fit(self, fitted_ehna, graph, tmp_path):
        path = fitted_ehna.save(tmp_path / "m.npz")
        loaded = EHNA.load(path)
        t_hi = graph.time_span[1]
        loaded.partial_fit(([0, 1], [5, 6], [t_hi + 1.0, t_hi + 2.0]))
        assert loaded.graph.num_edges == graph.num_edges + 2
        assert np.all(np.isfinite(loaded.embeddings()))

    def test_retired_candidate_cap_loads_and_trains(self, graph, tmp_path):
        # Checkpoints written while EHNAConfig had the candidate_cap knob
        # carry it in their header; loading drops it and nothing else.
        model = EHNA(seed=0, parallel_shards=2, **FAST).fit(graph)
        path = model.save(tmp_path / "m.npz")
        _add_config_key(path, path, "candidate_cap", 64)

        loaded = EHNA.load(path)
        assert not hasattr(loaded.config, "candidate_cap")
        assert loaded.config == model.config  # the shard layout is kept
        np.testing.assert_array_equal(loaded.embeddings(), model.embeddings())
        t_hi = graph.time_span[1]
        loaded.partial_fit(([0, 1], [5, 6], [t_hi + 1.0, t_hi + 2.0]))
        assert np.all(np.isfinite(loaded.embeddings()))
        assert np.isfinite(loaded.loss_history[-1])

    @pytest.mark.parametrize("fused_kernels", [False, True])
    def test_retired_fused_kernels_loads_and_trains(
        self, graph, tmp_path, fused_kernels
    ):
        # Checkpoints written while EHNAConfig chose between two aggregation
        # pipelines carry fused_kernels (either value) in their header; both
        # load into the one pipeline and continue exactly like the model
        # that never had the key.
        model = EHNA(seed=0, parallel_shards=2, **FAST).fit(graph)
        path = model.save(tmp_path / "m.npz")
        retired_path = tmp_path / "retired.npz"
        config = _add_config_key(path, retired_path, "fused_kernels", fused_kernels)

        assert EHNA._from_config(config).config == model.config
        loaded = EHNA.load(retired_path)
        assert not hasattr(loaded.config, "fused_kernels")
        assert loaded.config == model.config
        assert loaded.config.parallel_shards == 2  # the shard layout is kept
        np.testing.assert_array_equal(loaded.embeddings(), model.embeddings())
        plain = EHNA.load(path)
        t_hi = graph.time_span[1]
        edges = ([0, 1], [5, 6], [t_hi + 1.0, t_hi + 2.0])
        loaded.partial_fit(edges)
        plain.partial_fit(edges)
        assert loaded.loss_history == plain.loss_history
        np.testing.assert_array_equal(loaded.embeddings(), plain.embeddings())

    def test_rng_stream_roundtrips(self, graph, tmp_path):
        model = EHNA(seed=42, **FAST).fit(graph)
        path = model.save(tmp_path / "m.npz")
        # The restored stream continues exactly where the saved one stopped.
        expected = model._rng.integers(1 << 30, size=4)
        got = EHNA.load(path)._rng.integers(1 << 30, size=4)
        np.testing.assert_array_equal(got, expected)

    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="fit"):
            EHNA(**FAST).save(tmp_path / "m.npz")

    def test_base_class_load_dispatches(self, fitted_ehna, tmp_path):
        path = fitted_ehna.save(tmp_path / "m.npz")
        loaded = EmbeddingMethod.load(path)
        assert isinstance(loaded, EHNA)

    def test_wrong_class_load_rejected(self, fitted_ehna, tmp_path):
        path = fitted_ehna.save(tmp_path / "m.npz")
        with pytest.raises(CheckpointError, match="EHNA"):
            LINE.load(path)


#: The skip-gram baselines and the settings that keep their fits small.
SGNS_CASES = [
    (Node2Vec, dict(num_walks=2, walk_length=6, epochs=1)),
    (DeepWalk, dict(num_walks=2, walk_length=6, epochs=1)),
    (CTDNE, dict(walks_per_node=2, walk_length=6, epochs=1)),
]


class TestBaselineRoundtrips:
    @pytest.mark.parametrize("cls,kw", SGNS_CASES + [
        (LINE, dict(samples_per_edge=2)),
        (HTNE, dict(epochs=1)),
    ])
    def test_embeddings_and_encode_bitwise(self, cls, kw, graph, tmp_path):
        model = cls(dim=8, seed=0, **kw).fit(graph)
        path = model.save(tmp_path / "m.npz")
        loaded = EmbeddingMethod.load(path)
        assert type(loaded) is cls
        np.testing.assert_array_equal(loaded.embeddings(), model.embeddings())
        np.testing.assert_array_equal(
            loaded.encode([0, 3], at=1.0), model.encode([0, 3], at=1.0)
        )

    @pytest.mark.parametrize("cls,kw", SGNS_CASES)
    def test_retired_num_workers_loads_and_trains(self, cls, kw, graph, tmp_path):
        # Checkpoints written while the skip-gram baselines could train
        # Hogwild carry num_workers in their header; they load and continue
        # exactly like the archive without it.
        model = cls(dim=8, seed=0, **kw).fit(graph)
        path = model.save(tmp_path / "m.npz")
        retired_path = tmp_path / "retired.npz"
        _add_config_key(path, retired_path, "num_workers", 2)

        loaded = EmbeddingMethod.load(retired_path)
        assert type(loaded) is cls
        assert not hasattr(loaded, "num_workers")
        np.testing.assert_array_equal(loaded.embeddings(), model.embeddings())
        plain = EmbeddingMethod.load(path)
        t_hi = graph.time_span[1]
        edges = ([0, 1], [5, 6], [t_hi + 1.0, t_hi + 2.0])
        loaded.partial_fit(edges)
        plain.partial_fit(edges)
        assert loaded.loss_history == plain.loss_history
        np.testing.assert_array_equal(loaded.embeddings(), plain.embeddings())

    def test_only_num_workers_is_retired(self):
        config = dict(Node2Vec()._config_dict(), num_workers=2)
        assert Node2Vec._from_config(config)._config_dict() == Node2Vec()._config_dict()
        with pytest.raises(TypeError, match="walkers"):
            Node2Vec._from_config(dict(config, walkers=2))

    def test_htne_decay_roundtrips(self, graph, tmp_path):
        model = HTNE(dim=8, epochs=1, seed=0).fit(graph)
        path = model.save(tmp_path / "m.npz")
        assert HTNE.load(path).decay == model.decay


class TestHeaderValidation:
    def _ehna_path(self, fitted, tmp_path):
        return fitted.save(tmp_path / "m.npz")

    def test_wrong_version_rejected_clearly(self, fitted_ehna, tmp_path):
        path = self._ehna_path(fitted_ehna, tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        header = json.loads(str(payload["__checkpoint_header__"]))
        header["version"] = VERSION + 17
        payload["__checkpoint_header__"] = np.asarray(json.dumps(header))
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="version"):
            EHNA.load(path)

    def test_wrong_format_rejected(self, fitted_ehna, tmp_path):
        path = self._ehna_path(fitted_ehna, tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        header = json.loads(str(payload["__checkpoint_header__"]))
        header["format"] = "something.else"
        payload["__checkpoint_header__"] = np.asarray(json.dumps(header))
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="format"):
            EHNA.load(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_unknown_class_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m.npz", "NoSuchMethod", {}, {}, {"rng_state": {}})
        with pytest.raises(CheckpointError, match="NoSuchMethod"):
            EmbeddingMethod.load(tmp_path / "m.npz")

    def test_header_format_constant(self):
        assert FORMAT == "repro.embedding_method"
        assert VERSION == 2

    def test_suffix_appended(self, fitted_ehna, tmp_path):
        path = fitted_ehna.save(tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_corrupted_array_shape_rejected(self, fitted_ehna, tmp_path):
        path = self._ehna_path(fitted_ehna, tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["embedding"] = np.zeros((3, 3))
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="shape"):
            EHNA.load(path)


class TestDurability:
    """Atomic publish, per-array checksums, the stream watermark."""

    def test_save_leaves_no_temp_file(self, tmp_path):
        path = save_checkpoint(
            tmp_path / "m.npz", "EHNA", {}, {"a": np.arange(4)}, {}
        )
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crashed_save_keeps_the_previous_checkpoint(self, tmp_path):
        from repro.utils import faults
        from repro.utils.faults import InjectedCrash

        old = np.arange(4)
        path = save_checkpoint(tmp_path / "m.npz", "EHNA", {}, {"a": old}, {})
        with faults.inject("checkpoint.write", byte_limit=64):
            with pytest.raises(InjectedCrash):
                save_checkpoint(path, "EHNA", {}, {"a": np.arange(9)}, {})
        np.testing.assert_array_equal(load_checkpoint(path).arrays["a"], old)

    def test_crash_before_publish_keeps_the_previous_checkpoint(self, tmp_path):
        from repro.utils import faults
        from repro.utils.faults import InjectedCrash

        old = np.arange(4)
        path = save_checkpoint(tmp_path / "m.npz", "EHNA", {}, {"a": old}, {})
        with faults.inject("checkpoint.before_publish"):
            with pytest.raises(InjectedCrash):
                save_checkpoint(path, "EHNA", {}, {"a": np.arange(9)}, {})
        np.testing.assert_array_equal(load_checkpoint(path).arrays["a"], old)

    def test_flipped_payload_byte_fails_its_checksum(self, tmp_path):
        # Rewrite the archive with one array's bytes perturbed but the
        # recorded header (and its checksums) intact — only the per-array
        # CRC can catch this.
        path = save_checkpoint(
            tmp_path / "m.npz", "EHNA", {}, {"a": np.arange(64)}, {}
        )
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["a"] = payload["a"].copy()
        payload["a"][17] ^= 1
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="'a' fails its checksum"):
            load_checkpoint(path)

    def test_removed_array_detected_via_manifest(self, tmp_path):
        path = save_checkpoint(
            tmp_path / "m.npz", "EHNA", {}, {"a": np.arange(4), "b": np.ones(2)}, {}
        )
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        del payload["b"]
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="checksum manifest"):
            load_checkpoint(path)

    def test_verification_can_be_skipped(self, tmp_path):
        path = save_checkpoint(
            tmp_path / "m.npz", "EHNA", {}, {"a": np.arange(64)}, {}
        )
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["a"] = payload["a"].copy()
        payload["a"][17] ^= 1
        np.savez(path, **payload)
        ck = load_checkpoint(path, verify=False)
        assert ck.arrays["a"][17] == 16

    def test_truncated_archive_is_a_clear_error(self, tmp_path):
        path = save_checkpoint(
            tmp_path / "m.npz", "EHNA", {}, {"a": np.arange(512)}, {}
        )
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(path)

    def test_watermark_roundtrips(self, tmp_path):
        wm = {"batches": 7, "head_time": 12.5, "service": {"train_every": 2}}
        path = save_checkpoint(
            tmp_path / "m.npz", "EHNA", {}, {"a": np.arange(4)}, {}, watermark=wm
        )
        assert load_checkpoint(path).watermark == wm

    def test_watermark_defaults_to_none(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.npz", "EHNA", {}, {"a": np.arange(4)}, {})
        assert load_checkpoint(path).watermark is None

    def test_reserved_array_name_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            save_checkpoint(
                tmp_path / "m.npz", "EHNA", {},
                {"__checkpoint_header__": np.zeros(1)}, {},
            )

    def test_non_json_watermark_rejected_before_writing(self, tmp_path):
        with pytest.raises(CheckpointError, match="JSON"):
            save_checkpoint(
                tmp_path / "m.npz", "EHNA", {}, {"a": np.arange(4)}, {},
                watermark={"bad": object()},
            )
        assert not (tmp_path / "m.npz").exists()
