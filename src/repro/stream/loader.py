"""Time-ordered micro-batching over an event stream.

:class:`EventStreamLoader` turns parallel ``(src, dst, time[, weight])``
columns into an iterator of :class:`~repro.storage.EventBatch` micro-batches,
split either by **event count** (every batch has ``batch_size`` events,
except possibly the last) or by **time window** (every batch covers one
half-open interval ``[lo, lo + window)`` of the timeline).  The two
policies differ at timestamp ties: count batching slices purely by
position, so simultaneous events may land in different batches; window
batching assigns every event with the same timestamp to the same window,
always.

Construction validates the whole stream once (the batches are slices of
it, so no consumer checks them again), and the stream must already be
time-ordered — out-of-order input is rejected with the offending position
instead of silently re-sorted to hide a broken producer.
:meth:`EventStreamLoader.from_graph` replays any edge-id subset of a
:class:`~repro.graph.temporal_graph.TemporalGraph` (whose edge table is
time-sorted by construction), which is how the replay task and the
streaming benchmark drive a service from a held-out suffix.
"""

from __future__ import annotations

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.storage.base import validate_event_columns
from repro.utils.validation import check_positive


class EventStreamLoader:
    """Iterate a validated, time-ordered event stream in micro-batches.

    Parameters
    ----------
    src, dst, time, weight:
        Parallel event columns; ``weight`` is optional.  ``time`` must be
        non-decreasing (see module docstring).  The validated stream is
        :attr:`events`, one :class:`~repro.storage.EventBatch`.
    batch_size:
        Split by event count: every batch holds exactly this many events
        (the final batch may be shorter).  Mutually exclusive with
        ``window``.
    window:
        Split by time span: batch ``i`` holds the events with
        ``t0 + i*window <= t < t0 + (i+1)*window`` where ``t0`` is the first
        event time.  Simultaneous events never split across batches.
    drop_empty:
        Window mode only — skip windows containing no events (default keeps
        them, yielding empty batches, so a replay can represent time passing
        without traffic, e.g. to tick a service's absorb schedule).
    """

    def __init__(
        self,
        src,
        dst,
        time,
        weight=None,
        *,
        batch_size: int | None = None,
        window: float | None = None,
        drop_empty: bool = False,
    ):
        if (batch_size is None) == (window is None):
            raise ValueError(
                "pass exactly one of batch_size= (count batching) or "
                "window= (time-window batching)"
            )
        named = zip(("src", "dst", "time", "weight"), (src, dst, time, weight))
        sizes = {name: np.size(col) for name, col in named if col is not None}
        if len(set(sizes.values())) != 1:
            raise ValueError(
                "event columns disagree on length: "
                + " ".join(f"{name}={n}" for name, n in sizes.items())
            )
        self.events = validate_event_columns(src, dst, time, weight)
        times = self.events.time
        bad = np.flatnonzero(np.diff(times) < 0)
        if bad.size:
            i = int(bad[0]) + 1
            raise ValueError(
                f"event stream is out of order: event {i} has time "
                f"{times[i]} earlier than its predecessor "
                f"{times[i - 1]}; replay events in non-decreasing "
                "time order"
            )
        if batch_size is not None:
            check_positive("batch_size", batch_size)
            self.batch_size: int | None = int(batch_size)
            self.window: float | None = None
            self._slices = [
                (lo, min(lo + self.batch_size, times.size))
                for lo in range(0, times.size, self.batch_size)
            ]
        else:
            check_positive("window", window)
            self.batch_size = None
            self.window = float(window)
            self._slices = self._window_slices(drop_empty)

    def _window_slices(self, drop_empty: bool) -> list[tuple[int, int]]:
        """Half-open index ranges, one per ``window``-wide time interval."""
        times = self.events.time
        if times.size == 0:
            return []
        t0 = times[0]
        spans = int(np.floor((times[-1] - t0) / self.window)) + 1
        # side="left": an event exactly on a boundary opens the next window,
        # and every event sharing its timestamp travels with it.
        cuts = np.searchsorted(
            times,
            t0 + self.window * np.arange(1, spans + 1, dtype=np.int64),
            side="left",
        )
        starts = np.concatenate([[0], cuts[:-1]])
        slices = [(int(a), int(b)) for a, b in zip(starts, cuts)]
        if drop_empty:
            slices = [(a, b) for a, b in slices if b > a]
        return slices

    @classmethod
    def from_graph(
        cls,
        graph: TemporalGraph,
        edge_ids=None,
        *,
        batch_size: int | None = None,
        window: float | None = None,
        drop_empty: bool = False,
    ) -> "EventStreamLoader":
        """Replay ``edge_ids`` of ``graph`` (all edges when ``None``).

        Edge ids are sorted ascending first — the graph's edge table is
        time-sorted, so id order *is* replay order — which makes any
        selection (a ``split_recent`` holdout, a boolean-mask result, a
        random sample) valid input.
        """
        if edge_ids is None:
            ids = np.arange(graph.num_edges, dtype=np.int64)
        else:
            ids = np.sort(np.asarray(edge_ids, dtype=np.int64))
        return cls(
            graph.src[ids],
            graph.dst[ids],
            graph.time[ids],
            graph.weight[ids],
            batch_size=batch_size,
            window=window,
            drop_empty=drop_empty,
        )

    @classmethod
    def from_storage(
        cls,
        storage,
        *,
        batch_size: int | None = None,
        window: float | None = None,
        drop_empty: bool = False,
    ) -> "EventStreamLoader":
        """Replay a :class:`~repro.storage.GraphStorage` backend's event log.

        Feeds the store's columns to the loader directly — for a
        memory-mapped store the validation's dtype casts are no-ops on the
        maps, so batches are *views into the mapped files* and replaying a
        10M-event store never materializes it.  The validation and the
        monotonicity check still run (a few passes over the columns); a
        store a :class:`~repro.storage.MemmapStorageWriter` finalized holds
        validated, sorted events by construction and always passes.
        """
        return cls(
            storage.src,
            storage.dst,
            storage.time,
            storage.weight,
            batch_size=batch_size,
            window=window,
            drop_empty=drop_empty,
        )

    @property
    def num_events(self) -> int:
        return self.events.num_events

    def __len__(self) -> int:
        """Number of micro-batches the iterator will yield."""
        return len(self._slices)

    def __iter__(self):
        for lo, hi in self._slices:
            yield self.events.slice(lo, hi)
