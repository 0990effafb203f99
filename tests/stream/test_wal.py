"""WriteAheadLog: append/replay round-trips, torn tails, rotation, pruning."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.storage import EventBatch, validate_event_columns
from repro.stream.wal import (
    DEFAULT_SEGMENT_BYTES,
    SEGMENT_MAGIC,
    WALCorruptionError,
    WALError,
    WALRecord,
    WriteAheadLog,
)
from repro.utils import faults
from repro.utils.faults import InjectedCrash


def make_batch(n, t0=0.0, node0=0):
    src = np.arange(node0, node0 + n, dtype=np.int64)
    dst = src + 1
    time = np.linspace(t0, t0 + 1.0, n)
    weight = np.full(n, 2.0)
    return src, dst, time, weight


def fill(wal, batches, n=8):
    """Append ``batches`` distinct batches; returns the list appended."""
    out = []
    for i in range(batches):
        batch = make_batch(n, t0=float(i), node0=i)
        wal.append(validate_event_columns(*batch))
        out.append(batch)
    return out


class TestRoundTrip:
    def test_append_then_read_back_bitwise(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        sent = fill(wal, 3)
        records = list(wal.records())
        assert [r.seq for r in records] == [1, 2, 3]
        for record, (src, dst, time, weight) in zip(records, sent):
            np.testing.assert_array_equal(record.batch.src, src)
            np.testing.assert_array_equal(record.batch.dst, dst)
            np.testing.assert_array_equal(record.batch.time, time)
            np.testing.assert_array_equal(record.batch.weight, weight)

    def test_reopen_resumes_after_the_last_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 2)
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.next_seq == 3
        reopened.append(validate_event_columns(*make_batch(4)))
        assert [r.seq for r in reopened.records()] == [1, 2, 3]

    def test_empty_batch_is_a_durable_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        empty = np.array([], dtype=np.int64)
        wal.append(validate_event_columns(empty, empty, np.array([]), np.array([])))
        (record,) = wal.records()
        assert record.seq == 1 and record.batch.num_events == 0

    def test_unit_weights_filled_like_the_graph_gate(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        src, dst, time, _ = make_batch(4)
        wal.append(validate_event_columns(src, dst, time))
        (record,) = wal.records()
        np.testing.assert_array_equal(record.batch.weight, np.ones(4))

    def test_records_start_seq_skips_the_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 4)
        assert [r.seq for r in wal.records(start_seq=3)] == [3, 4]

    def test_invalid_events_rejected_before_any_bytes(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(ValueError, match="self-loops"):
            wal.append(
                validate_event_columns(
                    np.array([1]), np.array([1]), np.array([0.0]), np.array([1.0])
                )
            )
        assert wal.last_seq == 0
        assert list(wal.records()) == []

    def test_explicit_seq_must_continue_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 2)
        with pytest.raises(WALError, match="out of sequence"):
            wal.append(validate_event_columns(*make_batch(4)), seq=7)

    def test_columns_round_trip_into_wal_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 1)
        (record,) = wal.records()
        assert isinstance(record, WALRecord)
        assert isinstance(record.batch, EventBatch)
        assert record.batch.num_events == 8


class TestRotationAndPrune:
    def test_rotation_bounds_segment_size(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=400)
        fill(wal, 6)
        sizes = [p.stat().st_size for p in wal.segment_paths]
        assert len(sizes) > 1
        assert all(s <= 400 for s in sizes)

    def test_sequence_numbers_continue_across_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=400)
        fill(wal, 6)
        assert [r.seq for r in wal.records()] == list(range(1, 7))

    def test_prune_deletes_only_fully_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=400)
        fill(wal, 6)
        wal.rotate()
        before = len(wal.segment_paths)
        wal.prune(upto_seq=3)
        survivors = [r.seq for r in wal.records()]
        # Whole segments are the prune unit: everything past the watermark
        # survives; a segment straddling it keeps its earlier records too.
        assert len(wal.segment_paths) < before
        assert set(range(4, 7)) <= set(survivors)
        assert wal.first_seq == survivors[0]

    def test_prune_never_touches_the_open_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")  # everything in one open segment
        fill(wal, 3)
        assert wal.prune(upto_seq=3) == []
        assert [r.seq for r in wal.records()] == [1, 2, 3]

    def test_fast_forward_reanchors_an_empty_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")  # fresh: nothing to replay
        wal.fast_forward(9)
        assert wal.next_seq == 10
        wal.append(validate_event_columns(*make_batch(4)))
        assert [r.seq for r in wal.records()] == [10]

    def test_fast_forward_refuses_a_log_with_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 2)
        with pytest.raises(WALError, match="holds records"):
            wal.fast_forward(9)

    def test_fast_forward_refuses_going_backwards(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 3)
        wal.rotate()
        wal.prune(upto_seq=3)  # empty again, but positioned at seq 3
        with pytest.raises(WALError, match="backwards"):
            wal.fast_forward(1)

    def test_prune_everything_then_append_continues_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 3)
        wal.rotate()
        wal.prune(upto_seq=3)
        assert wal.first_seq is None
        wal.append(validate_event_columns(*make_batch(4)), seq=4)
        assert [r.seq for r in wal.records()] == [4]


class TestCrashAnatomy:
    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 2)
        with faults.inject("wal.append.write", byte_limit=10):
            with pytest.raises(InjectedCrash):
                wal.append(validate_event_columns(*make_batch(8, t0=99.0)))
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.truncated_tail is not None
        assert [r.seq for r in reopened.records()] == [1, 2]
        assert reopened.next_seq == 3

    def test_append_after_torn_tail_reuses_the_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 1)
        with faults.inject("wal.append.write", byte_limit=4):
            with pytest.raises(InjectedCrash):
                wal.append(validate_event_columns(*make_batch(8)))
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal")
        reopened.append(validate_event_columns(*make_batch(4)), seq=2)
        assert [r.seq for r in reopened.records()] == [1, 2]

    def test_partial_segment_header_resets_cleanly(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 1)
        wal.close()
        # Simulate a crash during creation of the next segment: a file
        # holding only a prefix of the 8-byte header.
        (tmp_path / "wal" / "wal-00000002.log").write_bytes(SEGMENT_MAGIC[:2])
        reopened = WriteAheadLog(tmp_path / "wal")
        assert [r.seq for r in reopened.records()] == [1]
        reopened.append(validate_event_columns(*make_batch(4)))  # the reset segment is writable

    def test_mid_log_damage_is_corruption_not_truncation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=400)
        fill(wal, 6)
        wal.close()
        first = WriteAheadLog(tmp_path / "wal").segment_paths[0]
        blob = bytearray(first.read_bytes())
        blob[20] ^= 0xFF  # flip a byte inside the first (non-tail) segment
        first.write_bytes(bytes(blob))
        with pytest.raises(WALCorruptionError, match="refusing to drop"):
            WriteAheadLog(tmp_path / "wal")

    def test_bad_magic_is_corruption(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        (wal_dir / "wal-00000001.log").write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(WALCorruptionError, match="bad magic"):
            WriteAheadLog(wal_dir)

    def test_unsupported_segment_version_is_refused(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        (wal_dir / "wal-00000001.log").write_bytes(
            SEGMENT_MAGIC + struct.pack("<I", 99)
        )
        with pytest.raises(WALCorruptionError, match="version 99"):
            WriteAheadLog(wal_dir)

    def test_crc_mismatch_at_the_tail_truncates(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        fill(wal, 2)
        wal.close()
        seg = WriteAheadLog(tmp_path / "wal").segment_paths[0]
        blob = bytearray(seg.read_bytes())
        blob[-1] ^= 0xFF  # corrupt the very last payload byte
        seg.write_bytes(bytes(blob))
        reopened = WriteAheadLog(tmp_path / "wal")
        assert [r.seq for r in reopened.records()] == [1]
        assert reopened.truncated_tail is not None


class TestConfig:
    def test_unknown_sync_policy_rejected(self, tmp_path):
        with pytest.raises(WALError, match="sync policy"):
            WriteAheadLog(tmp_path / "wal", sync="usually")

    def test_sync_always_and_never_round_trip(self, tmp_path):
        for policy in ("always", "never"):
            wal = WriteAheadLog(tmp_path / policy, sync=policy)
            fill(wal, 2)
            wal.close()
            assert len(list(WriteAheadLog(tmp_path / policy).records())) == 2

    def test_default_segment_budget_is_sane(self):
        assert DEFAULT_SEGMENT_BYTES >= 1 << 20
