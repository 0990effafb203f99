"""Append-only write-ahead log of ingested event batches.

The durability contract of the streaming layer: **an event batch is durable
the moment its WAL record is written** (fsynced under ``sync="always"``,
OS-buffered under ``"batch"``), *before* it touches the in-memory graph.  A
killed process loses at most the batch it was mid-write on — and the reader
detects that torn tail and truncates it instead of crashing, so recovery
(:meth:`repro.stream.OnlineService.recover`) replays exactly the durable
prefix.

**Layout.**  A WAL is a directory of segment files::

    wal/
      wal-00000001.log
      wal-00000002.log      <- appends go to the newest segment
      ...

Each segment starts with an 8-byte header (magic ``b"RWAL"`` + little-endian
``u32`` format version) followed by length-prefixed records::

    [u32 payload_len][u32 crc32(payload)][payload]

    payload = [u64 seq][u64 count]
              [src  i64 x count][dst    i64 x count]
              [time f64 x count][weight f64 x count]

``seq`` is the 1-based batch sequence number — the stream watermark a
checkpoint records, and the replay cursor recovery resumes from.  Sequence
numbers are contiguous across segments; :meth:`append` refuses a seq that
does not continue the log (pointing a *fresh* service at a stale WAL
directory is a recovery mistake, not an append).

**Crash anatomy.**  Appends only ever touch the newest segment, so a torn
record (short header, short payload, or CRC mismatch) can only legally
appear at the tail of the *last* segment; there it is truncated on open.
Anywhere else it means bytes rotted after they were durably followed by
more data — that is reported as :class:`WALCorruptionError`, never silently
skipped.  Segment rotation (``segment_max_bytes``, or an explicit
:meth:`rotate` at checkpoint time) bounds file sizes and gives
:meth:`prune` a whole-file unit of reclamation: a checkpoint at watermark
``s`` makes every segment whose records are all ``<= s`` redundant.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.storage.base import EventBatch, validate_event_columns
from repro.utils import faults
from repro.utils.validation import check_positive

__all__ = [
    "WALCorruptionError",
    "WALError",
    "WALRecord",
    "WriteAheadLog",
]

#: First 8 bytes of every segment file: magic + little-endian u32 version.
SEGMENT_MAGIC = b"RWAL"
SEGMENT_VERSION = 1
_SEGMENT_HEADER = SEGMENT_MAGIC + struct.pack("<I", SEGMENT_VERSION)

#: Per-record header: little-endian u32 payload length + u32 CRC32.
_RECORD_HEADER = struct.Struct("<II")
#: Payload prefix: little-endian u64 seq + u64 event count.
_PAYLOAD_PREFIX = struct.Struct("<QQ")
#: Bytes per event in a payload (src i64 + dst i64 + time f64 + weight f64).
_BYTES_PER_EVENT = 32

#: Default segment-rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Valid fsync policies (see :class:`WriteAheadLog`).
SYNC_POLICIES = ("always", "batch", "never")

_SEGMENT_RE = re.compile(r"wal-(\d{8})\.log$")


class WALError(ValueError):
    """The directory or an operation on it is not a valid WAL use."""


class WALCorruptionError(WALError):
    """Bytes rotted somewhere a torn tail cannot explain."""


@dataclass(frozen=True)
class WALRecord:
    """One durably logged event batch, validated again as it is read."""

    seq: int
    batch: EventBatch


def _segment_path(directory: Path, index: int) -> Path:
    return directory / f"wal-{index:08d}.log"


def _encode_record(seq: int, batch: EventBatch) -> bytes:
    payload = b"".join(
        (
            _PAYLOAD_PREFIX.pack(int(seq), batch.num_events),
            batch.src.tobytes(),
            batch.dst.tobytes(),
            batch.time.tobytes(),
            batch.weight.tobytes(),
        )
    )
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes, where: str) -> tuple[int, tuple]:
    """Parse a CRC-verified payload into ``(seq, columns)``; malformed
    structure is corruption."""
    if len(payload) < _PAYLOAD_PREFIX.size:
        raise WALCorruptionError(f"{where}: payload shorter than its prefix")
    seq, count = _PAYLOAD_PREFIX.unpack_from(payload)
    expected = _PAYLOAD_PREFIX.size + count * _BYTES_PER_EVENT
    if len(payload) != expected:
        raise WALCorruptionError(
            f"{where}: payload of {len(payload)} bytes does not hold "
            f"{count} events (expected {expected})"
        )
    cols = []
    offset = _PAYLOAD_PREFIX.size
    for dtype in (np.int64, np.int64, np.float64, np.float64):
        cols.append(
            np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        )
        offset += count * 8
    return int(seq), tuple(cols)


class WriteAheadLog:
    """Append-only, CRC-checked, segment-rotated log of event batches.

    Parameters
    ----------
    path:
        The WAL directory (created if missing).  Opening scans every
        existing segment — verifying CRCs and sequence contiguity,
        truncating a torn tail on the newest segment — so a reopened WAL is
        positioned exactly after its last durable record.
    segment_max_bytes:
        Rotate to a fresh segment once the current one exceeds this many
        bytes (checked before each append, so records never split across
        segments).
    sync:
        Durability of each :meth:`append` — ``"always"`` fsyncs every
        record (survives OS crash), ``"batch"`` (default) flushes to the OS
        per record and fsyncs at rotation/close (survives *process* death,
        the failure mode the fault harness simulates), ``"never"`` leaves
        buffering to the runtime (benchmark baseline).
    """

    def __init__(
        self,
        path,
        *,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: str = "batch",
    ):
        if sync not in SYNC_POLICIES:
            raise WALError(
                f"unknown sync policy {sync!r}; pick one of {SYNC_POLICIES}"
            )
        check_positive("segment_max_bytes", segment_max_bytes)
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = int(segment_max_bytes)
        self.sync = sync
        self._fh = None  # open handle on the newest segment, or None
        self._fh_size = 0
        self._rotated = False  # a rotated segment is never reopened
        self._seg_index = 0  # highest segment index ever used
        self._first_seq: int | None = None  # oldest seq still in the log
        self._last_seq = 0  # newest durable seq (0 = empty log)
        self._truncated_tail: tuple[str, int] | None = None
        self._scan()

    # ------------------------------------------------------------------
    # opening: scan, verify, truncate the torn tail
    # ------------------------------------------------------------------
    def _segment_files(self) -> list[tuple[int, Path]]:
        found = []
        for p in self.path.iterdir():
            m = _SEGMENT_RE.match(p.name)
            if m:
                found.append((int(m.group(1)), p))
        return sorted(found)

    def _scan(self) -> None:
        """Read every segment once: position the log after its durable tail."""
        segments = self._segment_files()
        for pos, (index, seg_path) in enumerate(segments):
            self._seg_index = max(self._seg_index, index)
            is_last = pos == len(segments) - 1
            for seq, _, _ in self._read_segment(seg_path, truncate_torn=is_last):
                if self._last_seq and seq != self._last_seq + 1:
                    raise WALCorruptionError(
                        f"{seg_path}: record seq {seq} does not follow "
                        f"{self._last_seq}; the log is missing records"
                    )
                if self._first_seq is None:
                    self._first_seq = seq
                self._last_seq = max(self._last_seq, seq)

    def _read_segment(self, seg_path: Path, truncate_torn: bool):
        """Yield ``(seq, columns, where)`` for every record of one segment;
        handle its tail per the crash anatomy.

        A short/garbled *tail* on the newest segment is truncated in place
        (``truncate_torn=True``); any anomaly elsewhere raises
        :class:`WALCorruptionError`.
        """
        data = seg_path.read_bytes()
        if len(data) < len(_SEGMENT_HEADER) or data[:4] != SEGMENT_MAGIC:
            if truncate_torn and (not data or _SEGMENT_HEADER.startswith(data)):
                # Crash during segment creation: a partial header and no
                # records.  Reset the file to a clean empty segment.
                self._note_truncation(seg_path, 0)
                seg_path.write_bytes(_SEGMENT_HEADER)
                return
            raise WALCorruptionError(
                f"{seg_path}: not a WAL segment (bad magic/header)"
            )
        version = struct.unpack_from("<I", data, 4)[0]
        if version != SEGMENT_VERSION:
            raise WALCorruptionError(
                f"{seg_path}: segment version {version} unsupported "
                f"(expected {SEGMENT_VERSION})"
            )
        offset = len(_SEGMENT_HEADER)
        while offset < len(data):
            torn = None
            if offset + _RECORD_HEADER.size > len(data):
                torn = "short record header"
            else:
                length, crc = _RECORD_HEADER.unpack_from(data, offset)
                body_at = offset + _RECORD_HEADER.size
                if body_at + length > len(data):
                    torn = f"payload truncated ({len(data) - body_at} of {length} bytes)"
                else:
                    payload = data[body_at : body_at + length]
                    if zlib.crc32(payload) != crc:
                        torn = "CRC mismatch"
            if torn is not None:
                if not truncate_torn:
                    raise WALCorruptionError(
                        f"{seg_path}: {torn} at offset {offset}, but the "
                        "record is not the tail of the newest segment — "
                        "refusing to drop data that was once durable"
                    )
                self._note_truncation(seg_path, offset)
                with seg_path.open("rb+") as fh:
                    fh.truncate(offset)
                return
            where = f"{seg_path} @ {offset}"
            yield *_decode_payload(payload, where), where
            offset = body_at + length

    def _note_truncation(self, seg_path: Path, offset: int) -> None:
        self._truncated_tail = (str(seg_path), int(offset))

    @property
    def truncated_tail(self) -> tuple[str, int] | None:
        """Where the opening scan cut a torn tail (path, offset), or None."""
        return self._truncated_tail

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`append` will assign."""
        return self._last_seq + 1

    @property
    def first_seq(self) -> int | None:
        """Oldest sequence number still in the log (None when empty)."""
        return self._first_seq

    @property
    def last_seq(self) -> int:
        """Newest durable sequence number (0 when the log is empty)."""
        return self._last_seq

    def append(self, batch: EventBatch, seq: int | None = None) -> int:
        """Durably log one validated event batch; returns its seq.

        An :class:`~repro.storage.EventBatch` holds only events the graph
        accepts, so the log does not check them again.  ``seq`` (when given)
        must equal :attr:`next_seq`; a mismatch means the caller's idea of
        the stream and this directory diverged (e.g. a fresh service pointed
        at a stale WAL) and raises :class:`WALError` before any bytes are
        written.
        """
        faults.crash_point("wal.append.begin")
        if seq is None:
            seq = self.next_seq
        elif int(seq) != self.next_seq:
            raise WALError(
                f"append out of sequence: the log continues at seq "
                f"{self.next_seq} but {int(seq)} was offered — recover from "
                "this WAL instead of appending to it"
            )
        record = _encode_record(seq, batch)
        fh = self._writable_segment(len(record))
        faults.torn_write(fh, record, "wal.append.write")
        self._fh_size += len(record)
        if self.sync == "always":
            fh.flush()
            os.fsync(fh.fileno())
        elif self.sync == "batch":
            fh.flush()
        if self._first_seq is None:
            self._first_seq = int(seq)
        self._last_seq = int(seq)
        faults.crash_point("wal.append.synced")
        return int(seq)

    def fast_forward(self, last_seq: int) -> None:
        """Advance :attr:`next_seq` past a fully pruned history.

        A checkpoint at watermark ``s`` may prune *every* segment; reopening
        the directory then finds no records and would restart numbering at
        1, diverging from the stream.  Recovery calls this to re-anchor the
        counter at the watermark.  Only legal on an empty log — on a log
        with records it would manufacture a gap, so it raises instead.
        """
        last_seq = int(last_seq)
        if self._first_seq is not None:
            raise WALError(
                f"cannot fast_forward a log that still holds records "
                f"({self._first_seq}..{self._last_seq}); only an empty "
                "(fully pruned) log can be re-anchored"
            )
        if last_seq < self._last_seq:
            raise WALError(
                f"cannot fast_forward backwards ({self._last_seq} -> {last_seq})"
            )
        self._last_seq = last_seq

    def _writable_segment(self, incoming: int):
        """The open handle appends go to, rotating when full."""
        if (
            self._fh is not None
            and self._fh_size + incoming > self.segment_max_bytes
            and self._fh_size > len(_SEGMENT_HEADER)
        ):
            self.rotate()
        if self._fh is None:
            # The first append after opening resumes the newest existing
            # segment when it has room; after a rotate appends always start
            # a fresh one, so the rotated segment stays prunable.
            segments = [] if self._rotated else self._segment_files()
            if segments:
                index, seg_path = segments[-1]
                if seg_path.stat().st_size + incoming <= self.segment_max_bytes:
                    self._fh = seg_path.open("ab")
                    self._fh_size = seg_path.stat().st_size
                    return self._fh
            self._open_fresh_segment()
        return self._fh

    def _open_fresh_segment(self) -> None:
        self._seg_index += 1
        seg_path = _segment_path(self.path, self._seg_index)
        self._fh = seg_path.open("xb")
        self._fh.write(_SEGMENT_HEADER)
        self._fh.flush()
        self._fh_size = len(_SEGMENT_HEADER)

    def rotate(self) -> None:
        """Close the current segment (fsyncing it) so it becomes prunable.

        The next append starts a fresh segment, so records logged after the
        rotate never land in a segment a checkpoint is about to prune.
        """
        self._rotated = True
        if self._fh is not None:
            self._fh.flush()
            if self.sync != "never":
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            self._fh_size = 0

    def sync_now(self) -> None:
        """Flush and fsync the current segment regardless of policy."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the log (idempotent); the directory stays replayable."""
        self.rotate()

    # ------------------------------------------------------------------
    # reading and pruning
    # ------------------------------------------------------------------
    def records(self, start_seq: int = 1):
        """Yield every durable record with ``seq >= start_seq``, in order.

        Reads the segment files (flushing the in-flight one first so the
        iterator always observes the log's own appends) and validates each
        record's events: disk bytes are outside input, and events that fail
        the checks under a valid CRC are corruption.  Torn tails were
        already truncated by the opening scan, so any damage found here —
        including a tail torn *after* open, which only an abandoned
        crashed-mid-append handle can leave — raises
        :class:`WALCorruptionError`; reopen the WAL to repair it.
        """
        for seq, columns, where in self._entries():
            if seq >= start_seq:
                try:
                    batch = validate_event_columns(*columns)
                except ValueError as exc:
                    raise WALCorruptionError(f"{where}: {exc}") from exc
                yield WALRecord(seq, batch)

    def _entries(self):
        """Every record as ``(seq, columns, where)``, not yet validated."""
        if self._fh is not None:
            self._fh.flush()
        for _, seg_path in self._segment_files():
            yield from self._read_segment(seg_path, truncate_torn=False)

    def prune(self, upto_seq: int) -> list[Path]:
        """Delete closed segments whose records are all ``<= upto_seq``.

        The unit of reclamation is the whole segment file — a segment
        survives until its *newest* record is covered by a checkpoint.  The
        segment currently open for appends is never pruned (rotate first;
        the service does at checkpoint time).  Returns the deleted paths.
        """
        upto_seq = int(upto_seq)
        removed: list[Path] = []
        open_path = None
        if self._fh is not None:
            open_path = Path(self._fh.name)
        segments = self._segment_files()
        # A segment's records all precede the first record of the next
        # segment, so "max seq <= upto" is decidable from the scan without
        # an index: walk segments oldest-first, re-reading each until one
        # holds a record past the watermark.
        for _, seg_path in segments:
            if open_path is not None and seg_path == open_path:
                break
            last_in_segment = 0
            for seq, _, _ in self._read_segment(seg_path, truncate_torn=False):
                last_in_segment = seq
                if seq > upto_seq:
                    break
            if last_in_segment > upto_seq:
                break
            seg_path.unlink()
            removed.append(seg_path)
        if removed:
            self._first_seq = next((seq for seq, _, _ in self._entries()), None)
        return removed

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def segment_paths(self) -> tuple[Path, ...]:
        """The segment files currently on disk, oldest first."""
        return tuple(p for _, p in self._segment_files())

    @property
    def disk_bytes(self) -> int:
        """Total size of the segment files on disk."""
        return sum(p.stat().st_size for p in self.segment_paths)

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.path)!r}, segments="
            f"{len(self.segment_paths)}, last_seq={self._last_seq}, "
            f"sync={self.sync!r})"
        )
