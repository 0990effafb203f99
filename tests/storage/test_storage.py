"""The storage backends: column validation, ArrayStorage, the memmap store.

Covers the subsystem contract directly (dtype policy, laziness, manifest
round-trips, the writer's finalize-time sort) — backend *equivalence* through
the full TemporalGraph/walks/training stack lives in
``test_backend_equality.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.storage import (
    COLUMN_DTYPES,
    COLUMNS,
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    ArrayStorage,
    MemmapStorage,
    MemmapStorageWriter,
    StoreFormatError,
    is_store_dir,
    validate_event_columns,
)


def small_columns(n=6, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 5, size=n)
    dst = (src + 1 + rng.integers(0, 4, size=n)) % 10
    time = np.sort(rng.uniform(0.0, 10.0, size=n))
    weight = rng.uniform(0.5, 2.0, size=n)
    return src, dst, time, weight


class TestValidateEventColumns:
    def test_casts_to_column_dtypes(self):
        batch = validate_event_columns(
            np.array([0, 1], dtype=np.int32),
            np.array([1, 2], dtype=np.int16),
            np.array([1, 2], dtype=np.int64),
            np.array([1, 1], dtype=np.float32),
        )
        for col in COLUMNS:
            assert getattr(batch, col).dtype == COLUMN_DTYPES[col]

    def test_unit_weights_filled(self):
        batch = validate_event_columns([0], [1], [1.0])
        np.testing.assert_array_equal(batch.weight, [1.0])

    def test_empty_columns_allowed(self):
        batch = validate_event_columns([], [], [])
        assert batch.num_events == 0
        assert batch.src.size == batch.dst.size == batch.time.size == batch.weight.size == 0

    @pytest.mark.parametrize(
        "src,dst,time,weight,match",
        [
            ([0], [0], [1.0], None, "self-loop"),
            ([-1], [1], [1.0], None, "negative"),
            ([0], [1], [np.inf], None, "finite"),
            ([0], [1], [np.nan], None, "finite"),
            ([0], [1], [1.0], [0.0], "positive"),
            ([0], [1], [1.0], [-2.0], "positive"),
            ([0, 1], [1], [1.0], None, "length"),
        ],
    )
    def test_rejects_bad_events(self, src, dst, time, weight, match):
        with pytest.raises(ValueError, match=match):
            validate_event_columns(src, dst, time, weight)

    @pytest.mark.parametrize("as_array", [True, False])
    @pytest.mark.parametrize(
        "src,dst,time,weight,message",
        [
            # A self-loop on one event and a negative id on another.
            (
                [0, -1, 2],
                [0, 1, 3],
                [1.0, 2.0, 3.0],
                [1.0, 1.0, 1.0],
                "self-loops are not allowed in a temporal network",
            ),
            (
                [-1, 2],
                [1, 3],
                [1.0, np.nan],
                [1.0, 0.0],
                "timestamps must be finite",
            ),
            (
                [-1, 2],
                [1, 3],
                [1.0, 2.0],
                [1.0, 0.0],
                "edge weights must be finite and positive",
            ),
        ],
        ids=["self-loop+negative-id", "nan-time+zero-weight", "zero-weight+negative-id"],
    )
    def test_the_first_rule_in_order_names_a_batch_with_two_violations(
        self, src, dst, time, weight, message, as_array
    ):
        if as_array:
            src, dst, time, weight = map(np.asarray, (src, dst, time, weight))
        with pytest.raises(ValueError) as info:
            validate_event_columns(src, dst, time, weight)
        assert str(info.value) == message


class TestArrayStorage:
    def test_columns_and_counts(self):
        src, dst, time, weight = small_columns()
        store = ArrayStorage(src, dst, time, weight)
        assert store.backend == "memory"
        assert store.num_events == src.size
        assert store.num_nodes == int(max(src.max(), dst.max())) + 1
        np.testing.assert_array_equal(store.src, src)
        np.testing.assert_array_equal(store.dst, dst)
        np.testing.assert_array_equal(store.time, time)
        np.testing.assert_array_equal(store.weight, weight)

    def test_explicit_num_nodes(self):
        src, dst, time, weight = small_columns()
        store = ArrayStorage(src, dst, time, weight, num_nodes=50)
        assert store.num_nodes == 50

    def test_loaded_columns_and_nbytes(self):
        store = ArrayStorage(*small_columns())
        assert set(store.loaded_columns) == set(COLUMNS)
        expected = sum(store.column(c).nbytes for c in COLUMNS)
        assert store.nbytes == expected

    def test_unknown_column_rejected(self):
        store = ArrayStorage(*small_columns())
        with pytest.raises(KeyError):
            store.column("nope")


class TestMemmapStorage:
    def test_write_read_round_trip(self, tmp_path):
        src, dst, time, weight = small_columns()
        store = MemmapStorage.write(tmp_path / "s", src, dst, time, weight)
        assert store.backend == "memmap"
        assert store.num_events == src.size
        np.testing.assert_array_equal(store.src, src)
        np.testing.assert_array_equal(store.dst, dst)
        np.testing.assert_array_equal(store.time, time)
        np.testing.assert_array_equal(store.weight, weight)

    def test_columns_load_lazily(self, tmp_path):
        store = MemmapStorage.write(tmp_path / "s", *small_columns())
        reopened = MemmapStorage(tmp_path / "s")
        assert reopened.loaded_columns == ()
        reopened.column("time")
        assert reopened.loaded_columns == ("time",)
        reopened.column("src")
        assert set(reopened.loaded_columns) == {"time", "src"}
        # Mapped columns are read-only views of the files.
        with pytest.raises((ValueError, OSError)):
            reopened.column("time")[0] = -1.0
        del store

    def test_manifest_contents(self, tmp_path):
        MemmapStorage.write(
            tmp_path / "s", *small_columns(), num_nodes=77, meta={"origin": "test"}
        )
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        assert manifest["format"] == FORMAT_NAME
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["num_events"] == 6
        assert manifest["num_nodes"] == 77
        assert manifest["time_sorted"] is True
        assert set(manifest["columns"]) == set(COLUMNS)
        assert manifest["meta"] == {"origin": "test"}
        store = MemmapStorage(tmp_path / "s")
        assert store.num_nodes == 77
        assert store.meta == {"origin": "test"}

    def test_is_store_dir(self, tmp_path):
        assert not is_store_dir(tmp_path)
        MemmapStorage.write(tmp_path / "s", *small_columns())
        assert is_store_dir(tmp_path / "s")
        assert not is_store_dir(tmp_path / "missing")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StoreFormatError, match="manifest"):
            MemmapStorage(tmp_path)

    def test_wrong_format_name_raises(self, tmp_path):
        d = tmp_path / "s"
        MemmapStorage.write(d, *small_columns())
        manifest = json.loads((d / MANIFEST_NAME).read_text())
        manifest["format"] = "something-else"
        (d / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="format"):
            MemmapStorage(d)

    def test_future_version_raises(self, tmp_path):
        d = tmp_path / "s"
        MemmapStorage.write(d, *small_columns())
        manifest = json.loads((d / MANIFEST_NAME).read_text())
        manifest["version"] = FORMAT_VERSION + 1
        (d / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="version"):
            MemmapStorage(d)

    def test_truncated_column_file_raises(self, tmp_path):
        d = tmp_path / "s"
        MemmapStorage.write(d, *small_columns())
        store = MemmapStorage(d)
        np.save(d / "time.npy", np.zeros(2))
        with pytest.raises(StoreFormatError, match="rows"):
            store.column("time")

    def test_disk_bytes_counts_columns(self, tmp_path):
        store = MemmapStorage.write(tmp_path / "s", *small_columns())
        raw = 6 * sum(np.dtype(COLUMN_DTYPES[c]).itemsize for c in COLUMNS)
        assert store.disk_bytes >= raw  # npy headers add a little


class TestMemmapStorageWriter:
    def test_chunked_appends_concatenate(self, tmp_path):
        src, dst, time, weight = small_columns(n=10)
        writer = MemmapStorageWriter(tmp_path / "s")
        for lo in range(0, 10, 3):
            writer.append(
                validate_event_columns(src[lo : lo + 3], dst[lo : lo + 3], time[lo : lo + 3],
                weight[lo : lo + 3]),
            )
        store = writer.finalize()
        np.testing.assert_array_equal(store.src, src)
        np.testing.assert_array_equal(store.time, time)
        np.testing.assert_array_equal(store.weight, weight)

    def test_unsorted_input_sorted_at_finalize(self, tmp_path):
        time = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        src = np.arange(5)
        dst = np.arange(5) + 10
        writer = MemmapStorageWriter(tmp_path / "s")
        writer.append(validate_event_columns(src[:3], dst[:3], time[:3]))
        writer.append(validate_event_columns(src[3:], dst[3:], time[3:]))
        store = writer.finalize()
        order = np.argsort(time, kind="stable")
        np.testing.assert_array_equal(store.time, time[order])
        np.testing.assert_array_equal(store.src, src[order])
        np.testing.assert_array_equal(store.dst, dst[order])

    def test_duplicate_timestamps_keep_arrival_order(self, tmp_path):
        # Three events at t=2.0 arriving from different chunks must come out
        # in arrival order (stable sort), exactly like from_edges' mergesort.
        time = np.array([3.0, 2.0, 2.0, 1.0, 2.0])
        src = np.array([0, 1, 2, 3, 4])
        dst = src + 5
        writer = MemmapStorageWriter(tmp_path / "s")
        for i in range(5):
            writer.append(validate_event_columns(src[i : i + 1], dst[i : i + 1], time[i : i + 1]))
        store = writer.finalize()
        np.testing.assert_array_equal(store.src, [3, 1, 2, 4, 0])
        np.testing.assert_array_equal(store.time, [1.0, 2.0, 2.0, 2.0, 3.0])

    def test_duplicate_events_are_kept(self, tmp_path):
        # Identical (src, dst, time) rows are distinct events, not dupes to
        # drop — repeated interactions are signal in a temporal graph.
        writer = MemmapStorageWriter(tmp_path / "s")
        writer.append(validate_event_columns([1, 1, 1], [2, 2, 2], [5.0, 5.0, 5.0]))
        store = writer.finalize()
        assert store.num_events == 3

    def test_empty_finalize_raises(self, tmp_path):
        writer = MemmapStorageWriter(tmp_path / "s")
        with pytest.raises(ValueError, match="at least one event"):
            writer.finalize()

    def test_append_validates_events(self, tmp_path):
        writer = MemmapStorageWriter(tmp_path / "s")
        with pytest.raises(ValueError, match="self-loop"):
            writer.append(validate_event_columns([3], [3], [1.0]))

    def test_sorted_input_skips_nothing(self, tmp_path):
        src, dst, time, weight = small_columns(n=8)
        writer = MemmapStorageWriter(tmp_path / "s", num_nodes=99)
        writer.append(validate_event_columns(src, dst, time, weight))
        store = writer.finalize()
        assert store.num_nodes == 99
        np.testing.assert_array_equal(store.time, time)

    def test_writer_num_nodes_inferred_from_events(self, tmp_path):
        writer = MemmapStorageWriter(tmp_path / "s")
        writer.append(validate_event_columns([0, 7], [3, 1], [1.0, 2.0]))
        store = writer.finalize()
        assert store.num_nodes == 8


class TestDeepValidation:
    """Per-column CRC32 digests, verified under validate='deep'."""

    def write_store(self, tmp_path, sort=False):
        src, dst, time, weight = small_columns(n=32)
        if sort:
            time = time[::-1].copy()  # force the finalize-time sort pass
        return MemmapStorage.write(tmp_path / "s", src, dst, time, weight).path

    def test_manifest_records_a_digest_per_column(self, tmp_path):
        path = self.write_store(tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        for name in COLUMNS:
            assert isinstance(manifest["columns"][name]["crc32"], int)

    @pytest.mark.parametrize("sorted_at_finalize", [False, True])
    def test_deep_validation_passes_on_a_clean_store(
        self, tmp_path, sorted_at_finalize
    ):
        path = self.write_store(tmp_path, sort=sorted_at_finalize)
        store = MemmapStorage(path, validate="deep")
        for name in COLUMNS:
            store.column(name)  # must not raise

    @pytest.mark.parametrize("column", COLUMNS)
    def test_one_flipped_byte_names_the_column(self, tmp_path, column):
        path = self.write_store(tmp_path)
        target = path / f"{column}.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF  # a data byte: headers end well before the tail
        target.write_bytes(bytes(blob))
        store = MemmapStorage(path, validate="deep")
        with pytest.raises(StoreFormatError, match=f"column {column!r}"):
            store.column(column)

    def test_basic_validation_skips_the_digest(self, tmp_path):
        path = self.write_store(tmp_path)
        target = path / "dst.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        MemmapStorage(path).column("dst")  # basic: dtype/shape only

    def test_missing_digest_under_deep_is_an_error(self, tmp_path):
        path = self.write_store(tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        del manifest["columns"]["time"]["crc32"]
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        store = MemmapStorage(path, validate="deep")
        with pytest.raises(StoreFormatError, match="no CRC32 digest"):
            store.column("time")

    def test_unknown_validate_level_rejected(self, tmp_path):
        path = self.write_store(tmp_path)
        with pytest.raises(ValueError, match="validate level"):
            MemmapStorage(path, validate="paranoid")


class TestCrashSafeFinalize:
    def test_interrupted_finalize_is_reported_not_mapped(self, tmp_path):
        writer = MemmapStorageWriter(tmp_path / "s")
        writer.append(validate_event_columns(*small_columns()))
        # Simulate a crash before finalize: spill files exist, no manifest.
        with pytest.raises(StoreFormatError, match=r"\.spill"):
            MemmapStorage(tmp_path / "s")

    def test_leftover_seal_temp_is_reported(self, tmp_path):
        path = MemmapStorage.write(tmp_path / "s", *small_columns()).path
        (path / MANIFEST_NAME).unlink()
        (path / "src.npy.tmp").write_bytes(b"partial")
        with pytest.raises(StoreFormatError, match="unfinished event store"):
            MemmapStorage(path)

    def test_leftover_manifest_temp_is_reported(self, tmp_path):
        path = MemmapStorage.write(tmp_path / "s", *small_columns()).path
        (path / MANIFEST_NAME).unlink()
        (path / (MANIFEST_NAME + ".tmp")).write_bytes(b"{")
        with pytest.raises(StoreFormatError, match="unfinished"):
            MemmapStorage(path)

    def test_finalize_leaves_no_scratch_files(self, tmp_path):
        src, dst, time, weight = small_columns(n=32)
        path = MemmapStorage.write(
            tmp_path / "s", src, dst, time[::-1].copy(), weight
        ).path
        names = {p.name for p in path.iterdir()}
        assert names == {MANIFEST_NAME} | {f"{c}.npy" for c in COLUMNS}

    def test_plain_empty_directory_is_still_a_plain_error(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(StoreFormatError, match="missing"):
            MemmapStorage(tmp_path / "d")
