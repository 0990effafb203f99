"""The storage-backend seam: where a temporal graph's event columns live.

A :class:`~repro.graph.temporal_graph.TemporalGraph` is, at bottom, four
parallel columns — ``src``, ``dst``, ``time``, ``weight`` — sorted by time.
Everything else (the CSR incidence index, the distinct-neighbor CSR, the
pair index) is *derived* and always lives in memory.  :class:`GraphStorage`
is the contract for where the base columns come from:

- :class:`ArrayStorage` — plain in-memory numpy arrays, the default.  This
  is exactly what ``TemporalGraph`` held before the seam existed; every
  graph built through ``from_edges`` / ``snapshot`` / ``compact`` uses it.
- :class:`~repro.storage.memmap.MemmapStorage` — a columnar on-disk layout
  (one ``.npy`` per column under a dataset directory, plus a JSON manifest),
  memory-mapped lazily so a 10M-event log never needs to be resident at
  once.  ``TemporalGraph.from_storage`` builds a graph over it; all queries
  run the same vectorized numpy code against the mapped columns.

The seam is deliberately *read-oriented*: storage hands out time-sorted
columns, and mutation (``extend_in_place`` compaction) materializes the
merged result into a fresh :class:`ArrayStorage` — the on-disk store is an
immutable event log, not a database.

:func:`validate_event_columns` is the single validation gate for event
columns and the only constructor of an :class:`EventBatch`; the write-ahead
log, ``TemporalGraph.extend_in_place`` and the memmap writer take a batch
and trust it, so a batch is validated once, where it enters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The event-table columns every backend stores, in canonical order.
COLUMNS = ("src", "dst", "time", "weight")

#: The on-disk / in-memory dtype policy of each column.  Node ids are int64
#: in the base table (the *derived* CSR narrows to int32 when the id space
#: fits — see ``TemporalGraph._build_incidence``); time and weight are
#: float64 because time is data, not compute (the precision policy narrows
#: compute buffers, never timestamps).
COLUMN_DTYPES = {
    "src": np.dtype(np.int64),
    "dst": np.dtype(np.int64),
    "time": np.dtype(np.float64),
    "weight": np.dtype(np.float64),
}


@dataclass(frozen=True)
class EventBatch:
    """A validated micro-batch of temporal edge events: int64 ``src``/``dst``
    and float64 ``time``/``weight``, 1-D and of one length.  Built only by
    :func:`validate_event_columns` and :meth:`slice`."""

    src: np.ndarray
    dst: np.ndarray
    time: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return int(self.src.size)

    @property
    def num_events(self) -> int:
        return int(self.src.size)

    @property
    def t_lo(self) -> float:
        """Earliest event time of a time-ordered batch (NaN when empty)."""
        return float(self.time[0]) if self.time.size else float("nan")

    @property
    def t_hi(self) -> float:
        """Latest event time of a time-ordered batch (NaN when empty)."""
        return float(self.time[-1]) if self.time.size else float("nan")

    def slice(self, lo: int, hi: int) -> "EventBatch":
        """Rows ``[lo, hi)`` as a batch (views, no copy): a slice of a
        validated batch is a validated batch."""
        return EventBatch(
            self.src[lo:hi], self.dst[lo:hi], self.time[lo:hi], self.weight[lo:hi]
        )


def validate_event_columns(src, dst, time, weight=None) -> EventBatch:
    """Cast and check parallel event columns; returns them as an :class:`EventBatch`.

    The one gate for event columns from outside the program: self-loops,
    negative ids, non-finite timestamps and non-positive weights are
    rejected with the same messages everywhere.  Empty columns are allowed
    (an empty ingest batch or chunk); callers that need at least one event
    check separately.  ``weight=None`` fills unit weights.

    A valid batch passes one fused test — a single mask over every
    per-event rule, reduced once; a batch that fails it (or carries weights
    that are not a float64 array) runs the ordered checks, so the error
    names the first violated rule exactly as it always has.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    time = np.asarray(time, dtype=np.float64)
    if src.shape != dst.shape or src.shape != time.shape or src.ndim != 1:
        raise ValueError("src, dst and time must be 1-D arrays of equal length")
    ok = (src != dst) & (src >= 0) & (dst >= 0) & np.isfinite(time)
    if weight is None:
        if ok.all():
            return EventBatch(src, dst, time, np.ones(src.size, dtype=np.float64))
    elif (
        isinstance(weight, np.ndarray)
        and weight.dtype == np.float64
        and weight.shape == src.shape
    ):
        ok &= (weight > 0) & np.isfinite(weight)
        if ok.all():
            return EventBatch(src, dst, time, weight)
    return EventBatch(src, dst, time, _validate_in_order(src, dst, time, weight))


def _validate_in_order(src, dst, time, weight) -> np.ndarray:
    """Run the event checks one by one, in the precedence order of their
    errors (``src``, ``dst`` and ``time`` arrive already cast); returns the weights."""
    if np.any(src == dst):
        raise ValueError("self-loops are not allowed in a temporal network")
    if not np.all(np.isfinite(time)):
        raise ValueError("timestamps must be finite")
    if weight is None:
        weight = np.ones(src.size, dtype=np.float64)
    else:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != src.shape:
            raise ValueError("weight must match src/dst/time in length")
        if np.any(weight <= 0) or not np.all(np.isfinite(weight)):
            raise ValueError("edge weights must be finite and positive")
    if np.any(src < 0) or np.any(dst < 0):
        raise ValueError("node ids must be non-negative integers")
    return weight


class GraphStorage:
    """Protocol for a temporal graph's base event columns.

    Subclasses provide :meth:`column` plus the :attr:`num_events` /
    :attr:`num_nodes` counts; the ``src``/``dst``/``time``/``weight``
    properties and the bookkeeping helpers are shared.  Columns must be
    time-sorted, validated (see :func:`validate_event_columns`) 1-D arrays
    of the :data:`COLUMN_DTYPES` dtypes; whether they are resident numpy
    arrays or lazily opened memory maps is the backend's business.
    """

    #: Short backend label ("memory", "memmap"), surfaced as
    #: ``TemporalGraph.storage_backend`` and used in dataset cache keys.
    backend = "abstract"

    def column(self, name: str) -> np.ndarray:
        """The named column as a 1-D array (may be a lazily opened memmap)."""
        raise NotImplementedError

    @property
    def num_events(self) -> int:
        """Number of events (rows) in the store."""
        raise NotImplementedError

    @property
    def num_nodes(self) -> int:
        """Size of the node-id space the events were recorded against."""
        raise NotImplementedError

    @property
    def loaded_columns(self) -> tuple[str, ...]:
        """Columns materialized/mapped so far (lazy backends load on demand)."""
        raise NotImplementedError

    # -- shared column accessors ---------------------------------------
    @property
    def src(self) -> np.ndarray:
        return self.column("src")

    @property
    def dst(self) -> np.ndarray:
        return self.column("dst")

    @property
    def time(self) -> np.ndarray:
        return self.column("time")

    @property
    def weight(self) -> np.ndarray:
        return self.column("weight")

    @property
    def nbytes(self) -> int:
        """Bytes of the columns loaded so far.

        For :class:`ArrayStorage` this is the full resident edge table; for
        a memmap backend it counts only the *mapped* columns — the figure is
        "what this process has asked for", and the OS pages the mapped
        bytes in and out beneath it.
        """
        return sum(self.column(name).nbytes for name in self.loaded_columns)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(backend={self.backend!r}, "
            f"events={self.num_events}, nodes={self.num_nodes})"
        )


class ArrayStorage(GraphStorage):
    """In-memory column storage — the default backend.

    Wraps already validated, time-sorted arrays without copying.  This is
    the storage every ``from_edges`` graph uses, and what a compaction of
    buffered streaming arrivals rebinds to (mutation always materializes;
    see the module docstring).
    """

    backend = "memory"

    def __init__(self, src, dst, time, weight, num_nodes: int | None = None):
        self._cols = {"src": src, "dst": dst, "time": time, "weight": weight}
        self._num_nodes = num_nodes

    def column(self, name: str) -> np.ndarray:
        return self._cols[name]

    @property
    def num_events(self) -> int:
        return int(self._cols["src"].size)

    @property
    def num_nodes(self) -> int:
        if self._num_nodes is None:
            if self.num_events == 0:
                return 0
            self._num_nodes = (
                int(max(self._cols["src"].max(), self._cols["dst"].max())) + 1
            )
        return self._num_nodes

    @property
    def loaded_columns(self) -> tuple[str, ...]:
        return COLUMNS
