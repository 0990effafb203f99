"""Columnar, memory-mapped on-disk event store.

The layout is a *dataset directory*: one ``.npy`` file per event column plus
a JSON manifest describing what is inside —

```
store/
  manifest.json     {"format": "repro-event-store", "version": 1,
                     "num_events": N, "num_nodes": n, "time_sorted": true,
                     "columns": {"src": {"file": "src.npy", "dtype": "<i8"},
                                 ...},
                     "meta": {...}}          # free-form provenance
  src.npy  dst.npy  time.npy  weight.npy    # plain npy, one column each
```

Plain ``.npy`` files mean any numpy (or external tool) can read a column
directly; :class:`MemmapStorage` opens them with ``np.load(mmap_mode="r")``
**lazily** — a column's file is not even touched until the first access, and
once mapped the OS pages it in on demand, so a 10M-event store costs no
resident memory up front.

:class:`MemmapStorageWriter` is the chunked ingestion path: ``append`` takes
validated :class:`~repro.storage.EventBatch` chunks (never materializing
the whole log, never building a Python object per row) and streams each
column's raw bytes to disk; ``finalize`` seals the files into ``.npy`` form,
globally **stable-sorts by time** if the chunks did not arrive sorted (so a
store is always time-sorted, with arrival order preserved among ties —
exactly the ``from_edges`` contract), and writes the manifest.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from repro.storage.base import (
    COLUMN_DTYPES,
    COLUMNS,
    EventBatch,
    GraphStorage,
    validate_event_columns,
)

#: Manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: On-disk format identifier and version, refused on mismatch (same policy
#: as the checkpoint format in ``utils/checkpoint.py``).
FORMAT_NAME = "repro-event-store"
FORMAT_VERSION = 1

#: Rows per block for the sort/copy passes in ``finalize`` — bounds peak
#: memory at a few MB regardless of store size.
DEFAULT_CHUNK_EVENTS = 262_144


#: Validation levels for :class:`MemmapStorage` — ``"basic"`` checks the
#: manifest and each column's dtype/shape on first access; ``"deep"``
#: additionally verifies each column's bytes against the CRC32 digest the
#: manifest recorded at write time.
VALIDATE_LEVELS = ("basic", "deep")

#: Temp-file suffixes an interrupted :meth:`MemmapStorageWriter.finalize`
#: can leave behind; their presence marks a crashed, unfinished store.
_SCRATCH_PATTERNS = ("*.spill", "*.npy.tmp", "*.sorted.tmp.npy", "manifest.json.tmp")


class StoreFormatError(ValueError):
    """The directory is not a readable event store (bad manifest/format)."""


def is_store_dir(path) -> bool:
    """Whether ``path`` looks like an event-store directory (has a manifest)."""
    return (Path(path) / MANIFEST_NAME).is_file()


def _scratch_files(path: Path) -> list[str]:
    """Writer temp files left in ``path`` (evidence of a crashed finalize)."""
    found: set[str] = set()
    for pattern in _SCRATCH_PATTERNS:
        found.update(p.name for p in path.glob(pattern))
    return sorted(found)


def _crc32_column(arr: np.ndarray) -> int:
    """CRC32 of a (possibly memory-mapped) column, in bounded blocks."""
    crc = 0
    for lo in range(0, arr.size, DEFAULT_CHUNK_EVENTS):
        block = np.ascontiguousarray(arr[lo : lo + DEFAULT_CHUNK_EVENTS])
        crc = zlib.crc32(block.view(np.uint8), crc)
    return crc


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class MemmapStorage(GraphStorage):
    """Read a columnar event-store directory with lazy memory-mapped columns.

    Construction reads only the manifest; each column file is opened with
    ``np.load(mmap_mode="r")`` on first access and cached (see
    :attr:`~repro.storage.base.GraphStorage.loaded_columns`).  The mapped
    arrays are read-only — the store is an immutable event log.

    ``validate="deep"`` additionally checks each column's bytes against the
    CRC32 digest the writer recorded in the manifest, on the column's first
    access — a single flipped byte anywhere in a ``.npy`` file surfaces as
    :class:`StoreFormatError` naming the damaged column instead of silently
    corrupt embeddings.  Deep validation pages the whole column in once;
    the default ``"basic"`` keeps opening free of I/O beyond the manifest.
    """

    backend = "memmap"

    def __init__(self, path, validate: str = "basic"):
        if validate not in VALIDATE_LEVELS:
            raise ValueError(
                f"unknown validate level {validate!r}; pick one of "
                f"{VALIDATE_LEVELS}"
            )
        self.validate = validate
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.is_file():
            scratch = _scratch_files(self.path)
            if scratch:
                raise StoreFormatError(
                    f"{self.path} holds an unfinished event store: no "
                    f"{MANIFEST_NAME}, but writer temp files remain "
                    f"({', '.join(scratch)}) — a finalize crashed before "
                    "publishing; re-run the ingestion to rebuild the store"
                )
            raise StoreFormatError(
                f"{self.path} is not an event store: missing {MANIFEST_NAME}"
            )
        with manifest_path.open() as fh:
            manifest = json.load(fh)
        if manifest.get("format") != FORMAT_NAME:
            raise StoreFormatError(
                f"{manifest_path}: format {manifest.get('format')!r} is not "
                f"{FORMAT_NAME!r}"
            )
        if manifest.get("version") != FORMAT_VERSION:
            raise StoreFormatError(
                f"{manifest_path}: version {manifest.get('version')!r} "
                f"unsupported (expected {FORMAT_VERSION})"
            )
        missing = [c for c in COLUMNS if c not in manifest.get("columns", {})]
        if missing:
            raise StoreFormatError(f"{manifest_path}: missing columns {missing}")
        self.manifest = manifest
        self._mapped: dict[str, np.ndarray] = {}

    # -- GraphStorage surface ------------------------------------------
    def column(self, name: str) -> np.ndarray:
        col = self._mapped.get(name)
        if col is None:
            spec = self.manifest["columns"][name]
            col = np.load(self.path / spec["file"], mmap_mode="r")
            if col.ndim != 1 or col.dtype != np.dtype(spec["dtype"]):
                raise StoreFormatError(
                    f"{self.path / spec['file']}: expected 1-D {spec['dtype']}, "
                    f"found {col.ndim}-D {col.dtype}"
                )
            if col.size != self.num_events:
                raise StoreFormatError(
                    f"{self.path / spec['file']}: {col.size} rows, manifest "
                    f"says {self.num_events}"
                )
            if self.validate == "deep":
                recorded = spec.get("crc32")
                if recorded is None:
                    raise StoreFormatError(
                        f"{self.path}: column {name!r} has no CRC32 digest "
                        "in the manifest — the store predates digests; "
                        "rewrite it (or open with validate='basic')"
                    )
                actual = _crc32_column(col)
                if actual != int(recorded):
                    raise StoreFormatError(
                        f"{self.path / spec['file']}: column {name!r} fails "
                        f"its checksum (recorded CRC32 {int(recorded)}, "
                        f"found {actual}) — the file is corrupt"
                    )
            self._mapped[name] = col
        return col

    @property
    def num_events(self) -> int:
        return int(self.manifest["num_events"])

    @property
    def num_nodes(self) -> int:
        return int(self.manifest["num_nodes"])

    @property
    def loaded_columns(self) -> tuple[str, ...]:
        return tuple(c for c in COLUMNS if c in self._mapped)

    @property
    def meta(self) -> dict:
        """Free-form provenance recorded at write time (may be empty)."""
        return dict(self.manifest.get("meta") or {})

    @property
    def disk_bytes(self) -> int:
        """Total size of the column files on disk."""
        return sum(
            (self.path / spec["file"]).stat().st_size
            for spec in self.manifest["columns"].values()
        )

    # -- writing -------------------------------------------------------
    @classmethod
    def write(
        cls,
        path,
        src,
        dst,
        time,
        weight=None,
        num_nodes: int | None = None,
        meta: dict | None = None,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> "MemmapStorage":
        """Write in-memory event columns as a store directory in one call.

        Chunks through :class:`MemmapStorageWriter`, so even a large
        in-memory table streams to disk in bounded blocks.  Unsorted input
        is sorted at finalize exactly like chunked ingestion.
        """
        batch = validate_event_columns(src, dst, time, weight)
        writer = MemmapStorageWriter(path, num_nodes=num_nodes, meta=meta)
        for lo in range(0, batch.num_events, int(chunk_events)):
            writer.append(batch.slice(lo, lo + int(chunk_events)))
        return writer.finalize()


class MemmapStorageWriter:
    """Stream validated event chunks into a new store directory.

    ``append`` writes each chunk's raw column bytes straight to per-column
    spill files (O(chunk) memory, no per-row Python objects); ``finalize``
    seals them into ``.npy`` files, re-sorts by time when chunks arrived out
    of order, and writes the manifest.  Duplicate events are kept — repeat
    interactions are meaningful temporal events — and ties keep arrival
    order (stable sort), so a finalized store read back through
    ``TemporalGraph.from_storage`` is bitwise identical to
    ``TemporalGraph.from_edges`` over the same event sequence.
    """

    def __init__(self, path, num_nodes: int | None = None, meta: dict | None = None):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if is_store_dir(self.path):
            raise FileExistsError(f"{self.path} already contains an event store")
        self._num_nodes = None if num_nodes is None else int(num_nodes)
        self._meta = dict(meta or {})
        self._spills = {
            name: (self.path / f"{name}.spill").open("wb") for name in COLUMNS
        }
        self._count = 0
        self._max_node = -1
        self._last_time = -np.inf
        self._sorted = True
        self._finalized = False
        self._checksums: dict[str, int] = {}

    @property
    def num_events(self) -> int:
        """Events appended so far."""
        return self._count

    def append(self, batch: EventBatch) -> "MemmapStorageWriter":
        """Stream one validated chunk of events to disk; returns self."""
        if self._finalized:
            raise RuntimeError("writer is finalized; open a new one to write more")
        if batch.num_events == 0:
            return self
        time = batch.time
        if time[0] < self._last_time or np.any(np.diff(time) < 0):
            self._sorted = False
        self._last_time = float(time[-1])
        self._max_node = max(self._max_node, int(batch.src.max()), int(batch.dst.max()))
        for name in COLUMNS:
            getattr(batch, name).tofile(self._spills[name])
        self._count += batch.num_events
        return self

    def finalize(self) -> MemmapStorage:
        """Seal the store: npy-wrap the columns, sort if needed, write manifest.

        Finalize is **crash-safe**: every column is sealed to a ``.npy.tmp``
        sibling and renamed into place, and the manifest — the only thing
        that makes the directory a store — is published last, atomically
        (temp + ``os.replace`` + directory fsync).  A crash at any earlier
        instant leaves a directory with no manifest plus writer temp files,
        which :class:`MemmapStorage` reports as an unfinished store naming
        the leftovers instead of mapping half-written columns.  The manifest
        records each column's CRC32 (verified under ``validate="deep"``).
        """
        if self._finalized:
            raise RuntimeError("writer is already finalized")
        for fh in self._spills.values():
            fh.close()
        if self._count == 0:
            for name in COLUMNS:
                (self.path / f"{name}.spill").unlink()
            raise ValueError("an event store needs at least one event")
        if self._num_nodes is None:
            self._num_nodes = self._max_node + 1
        elif self._num_nodes <= self._max_node:
            raise ValueError(
                f"num_nodes={self._num_nodes} too small for max node id "
                f"{self._max_node}"
            )
        self._finalized = True
        for name in COLUMNS:
            self._seal_column(name)
        if not self._sorted:
            self._sort_by_time()
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "num_events": self._count,
            "num_nodes": self._num_nodes,
            "time_sorted": True,
            "columns": {
                name: {
                    "file": f"{name}.npy",
                    "dtype": COLUMN_DTYPES[name].str,
                    "crc32": self._checksums[name],
                }
                for name in COLUMNS
            },
            "meta": self._meta,
        }
        tmp = self.path / (MANIFEST_NAME + ".tmp")
        with tmp.open("w") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path / MANIFEST_NAME)  # manifest appears atomically
        _fsync_directory(self.path)
        return MemmapStorage(self.path)

    def _seal_column(self, name: str) -> None:
        """Turn a raw spill file into ``<name>.npy`` via a temp sibling.

        The header + byte copy goes to ``<name>.npy.tmp`` (CRC32 of the
        data bytes accumulated along the way), is fsynced, and only then
        renamed to its final name — the published ``.npy`` is always whole.
        """
        spill = self.path / f"{name}.spill"
        dest = self.path / f"{name}.npy"
        tmp = self.path / f"{name}.npy.tmp"
        crc = 0
        with tmp.open("wb") as out:
            npy_format.write_array_header_1_0(
                out,
                {
                    "descr": COLUMN_DTYPES[name].str,
                    "fortran_order": False,
                    "shape": (self._count,),
                },
            )
            with spill.open("rb") as src:
                while True:
                    block = src.read(1 << 20)
                    if not block:
                        break
                    crc = zlib.crc32(block, crc)
                    out.write(block)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, dest)
        self._checksums[name] = crc
        spill.unlink()

    def _sort_by_time(self) -> None:
        """Globally stable-sort every column by the time column, in blocks.

        The permutation itself (one int64 per event) is the only full-length
        in-memory array; column data moves through fixed-size blocks between
        the existing map and a fresh memmap, then replaces the original file.
        The recorded checksums are recomputed over the sorted bytes as the
        blocks stream through.
        """
        time_mm = np.load(self.path / "time.npy", mmap_mode="r")
        order = np.argsort(time_mm, kind="stable")
        del time_mm
        n = self._count
        for name in COLUMNS:
            src_path = self.path / f"{name}.npy"
            tmp_path = self.path / f"{name}.sorted.tmp.npy"
            src_mm = np.load(src_path, mmap_mode="r")
            dst_mm = npy_format.open_memmap(
                tmp_path, mode="w+", dtype=COLUMN_DTYPES[name], shape=(n,)
            )
            crc = 0
            for lo in range(0, n, DEFAULT_CHUNK_EVENTS):
                hi = min(lo + DEFAULT_CHUNK_EVENTS, n)
                block = src_mm[order[lo:hi]]
                dst_mm[lo:hi] = block
                crc = zlib.crc32(np.ascontiguousarray(block).view(np.uint8), crc)
            dst_mm.flush()
            del src_mm, dst_mm
            # msync via flush() pushes the pages, but only an fsync makes
            # the file durable before it replaces the unsorted column.
            with tmp_path.open("rb+") as synced:
                os.fsync(synced.fileno())
            os.replace(tmp_path, src_path)
            self._checksums[name] = crc
