"""Versioned ``npz`` checkpoint format for embedding methods.

A checkpoint is a single ``.npz`` archive holding (a) a JSON header with the
format name, format version, the concrete method class, its constructor
configuration, the **precision policy** the model was trained under and any
JSON-serializable metadata (RNG state, loss history, …), and (b) the
method's parameter arrays verbatim.  Keeping the header *inside* the archive
makes checkpoints self-describing: ``load_checkpoint`` refuses anything
whose format or version it does not understand with a clear error instead of
a shape mismatch three layers down, and the loader can verify that the
header's precision agrees with the configuration it is about to rebuild the
model from (see :meth:`repro.base.EmbeddingMethod.load`).

The format is deliberately dumb — ``np.savez`` plus JSON — so checkpoints
stay readable from plain NumPy without importing this package.

**Crash safety.**  A checkpoint is *published atomically*: the archive is
written to a sibling temp file, flushed and fsynced, and only then renamed
over the target with ``os.replace`` — so at every instant the target path
holds either the complete previous checkpoint or the complete new one,
never a torn hybrid.  The header additionally records a CRC32 **checksum
per array**, verified on load, and an optional **stream watermark** (the
:class:`repro.stream.OnlineService` recovery cursor: ingested batch count,
absorbed-event count, stream head time).  Truncation, bit rot and torn
temp files all surface as a clear :class:`CheckpointError` naming what is
wrong instead of a shape mismatch three layers down.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.utils import faults

#: Identifies archives written by this module.
FORMAT = "repro.embedding_method"

#: Bumped whenever the layout changes incompatibly.  The precision,
#: checksum and watermark fields are *additive* header keys (absent means
#: "float64" / "unverified legacy archive" / "no stream state"), so none of
#: them bumped the version.
VERSION = 2

_HEADER_KEY = "__checkpoint_header__"


class CheckpointError(ValueError):
    """Raised when an archive is not a loadable checkpoint."""


@dataclass
class Checkpoint:
    """A parsed checkpoint: header fields plus the raw parameter arrays."""

    class_name: str
    version: int
    config: dict
    meta: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    #: Precision policy recorded at save time ("float64" for pre-policy
    #: archives, which never held anything else).
    precision: str = "float64"
    #: Stream watermark recorded by an online service (None for plain model
    #: checkpoints): where recovery resumes WAL replay.
    watermark: dict | None = None


def array_checksum(arr: np.ndarray) -> int:
    """CRC32 of an array's raw bytes (C order) — the self-verification unit."""
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


def _resolve_npz_path(path) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_checkpoint(
    path,
    class_name: str,
    config: dict,
    arrays: dict,
    meta: dict | None = None,
    precision: str = "float64",
    watermark: dict | None = None,
) -> Path:
    """Atomically write a versioned checkpoint archive; returns the path.

    ``config``, ``meta`` and ``watermark`` must be JSON-serializable;
    ``arrays`` maps names to numpy arrays (each one's CRC32 lands in the
    header for load-time verification).  ``precision`` records the policy
    the arrays were produced under so loaders can refuse inconsistent
    archives.  A ``.npz`` suffix is appended when missing (mirroring
    ``np.savez``).

    The archive is staged at ``<path>.tmp`` and published with
    ``os.replace`` after an fsync, so a crash at any point leaves the
    target either absent, the previous checkpoint, or the new one — never
    truncated.  A leftover ``.tmp`` from a crashed save is overwritten by
    the next save and ignored by :func:`load_checkpoint`.
    """
    return _publish_staged(
        _stage_checkpoint(
            path, class_name, config, arrays, meta, precision, watermark
        )
    )


def _stage_checkpoint(
    path, class_name, config, arrays, meta, precision, watermark
) -> tuple[Path, Path]:
    """The slow half of :func:`save_checkpoint`: checksum and serialize the
    archive to ``<path>.tmp``; returns ``(tmp, path)`` for
    :func:`_publish_staged`."""
    payload = {}
    checksums = {}
    for name, arr in arrays.items():
        if name == _HEADER_KEY:
            raise CheckpointError(f"array name {name!r} is reserved")
        arr = np.asarray(arr)
        payload[name] = arr
        checksums[name] = array_checksum(arr)
    header = {
        "format": FORMAT,
        "version": VERSION,
        "class": class_name,
        "config": config,
        "precision": precision,
        "checksums": checksums,
        "meta": meta or {},
    }
    if watermark is not None:
        header["watermark"] = watermark
    try:
        encoded = json.dumps(header)
    except TypeError as exc:
        raise CheckpointError(f"checkpoint header is not JSON-serializable: {exc}")
    path = _resolve_npz_path(path)
    payload[_HEADER_KEY] = np.asarray(encoded)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        np.savez(faults.wrap_file(fh, "checkpoint.write"), **payload)
    return tmp, path


def _publish_staged(staged: tuple[Path, Path]) -> Path:
    """The fast half of :func:`save_checkpoint`: fsync a staged archive,
    rename it over its target and fsync the directory; returns the target."""
    tmp, path = staged
    with tmp.open("rb") as fh:
        os.fsync(fh.fileno())
    faults.crash_point("checkpoint.before_publish")
    os.replace(tmp, path)  # the checkpoint appears (or updates) atomically
    _fsync_directory(path.parent)
    return path


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


def load_checkpoint(path, verify: bool = True) -> Checkpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` when the file is missing, is not a
    checkpoint archive (truncated or corrupt zip included), carries an
    unsupported format/version header, or — with ``verify`` (the default)
    — when any array's bytes no longer match the CRC32 the header recorded
    for it.  Legacy archives without recorded checksums load with
    verification skipped.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _HEADER_KEY not in archive:
                raise CheckpointError(
                    f"{path} is not an embedding-method checkpoint (no header)"
                )
            header = json.loads(str(archive[_HEADER_KEY]))
            arrays = {
                name: archive[name] for name in archive.files if name != _HEADER_KEY
            }
    except (OSError, ValueError, zipfile.BadZipFile, KeyError, EOFError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(
            f"cannot read checkpoint {path}: {type(exc).__name__}: {exc} "
            "(truncated or corrupt archive? a crashed save never publishes "
            "a partial file, but bytes can rot after publication)"
        )

    if header.get("format") != FORMAT:
        raise CheckpointError(
            f"{path} has format {header.get('format')!r}, expected {FORMAT!r}"
        )
    version = header.get("version")
    if version != VERSION:
        raise CheckpointError(
            f"{path} was written with checkpoint version {version}, but this "
            f"code reads version {VERSION}; re-save the model with a matching "
            f"release"
        )
    checksums = header.get("checksums")
    if verify and checksums:
        recorded = set(checksums)
        present = set(arrays)
        if recorded != present:
            raise CheckpointError(
                f"{path}: archive arrays {sorted(present)} disagree with the "
                f"header's checksum manifest {sorted(recorded)} — the archive "
                "was modified after it was written"
            )
        for name, arr in arrays.items():
            actual = array_checksum(arr)
            if actual != int(checksums[name]):
                raise CheckpointError(
                    f"{path}: array {name!r} fails its checksum "
                    f"(recorded CRC32 {int(checksums[name])}, found {actual}) "
                    "— the archive is corrupt"
                )
    return Checkpoint(
        class_name=header["class"],
        version=version,
        config=header.get("config", {}),
        meta=header.get("meta", {}),
        arrays=arrays,
        precision=header.get("precision", "float64"),
        watermark=header.get("watermark"),
    )


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-serializable state of a numpy Generator (bit generator + stream)."""
    return rng.bit_generator.state


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a Generator from :func:`rng_state` output."""
    name = state.get("bit_generator", "PCG64")
    try:
        bit_gen = getattr(np.random, name)()
    except AttributeError:
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint")
    bit_gen.state = state
    return np.random.Generator(bit_gen)
