"""Storage backends for temporal-graph event columns.

The :class:`GraphStorage` seam lets a :class:`~repro.graph.TemporalGraph`
keep its base event table either in memory (:class:`ArrayStorage`, the
default) or in a columnar, memory-mapped on-disk store
(:class:`MemmapStorage` — one ``.npy`` per column under a dataset directory
with a JSON manifest, columns mapped lazily), or in a shared-memory segment
(:class:`SharedMemoryStorage` — event columns plus the derived CSR indexes,
attachable zero-copy from worker processes via a picklable handle; the
substrate of ``repro.parallel``).  Chunked ingestion goes
through :class:`MemmapStorageWriter`; :func:`validate_event_columns` is the
one validation gate, and builds the :class:`EventBatch` they accept.  See
``docs/architecture.md`` ("The storage layer") for the layout and the
manifest format.
"""

from repro.storage.base import (
    COLUMN_DTYPES,
    COLUMNS,
    ArrayStorage,
    EventBatch,
    GraphStorage,
    validate_event_columns,
)
from repro.storage.memmap import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    MemmapStorage,
    MemmapStorageWriter,
    StoreFormatError,
    is_store_dir,
)
from repro.storage.shared import PackHandle, SharedArrayPack, SharedMemoryStorage

__all__ = [
    "GraphStorage",
    "ArrayStorage",
    "MemmapStorage",
    "MemmapStorageWriter",
    "SharedMemoryStorage",
    "SharedArrayPack",
    "PackHandle",
    "StoreFormatError",
    "EventBatch",
    "validate_event_columns",
    "is_store_dir",
    "COLUMNS",
    "COLUMN_DTYPES",
    "MANIFEST_NAME",
    "FORMAT_NAME",
    "FORMAT_VERSION",
]
