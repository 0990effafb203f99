"""EventStreamLoader: micro-batching policies, validation, replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import TemporalGraph
from repro.storage import validate_event_columns
from repro.stream import EventBatch, EventStreamLoader


def stream(n=10):
    """A simple n-event stream with times 0..n-1 and a tie at 3.0."""
    src = np.arange(n) % 4
    dst = (np.arange(n) + 1) % 4
    time = np.arange(n, dtype=np.float64)
    if n > 4:
        time[4] = 3.0  # tie with event 3
    return src, dst, np.sort(time)


class TestCountBatching:
    def test_batches_have_the_requested_size(self):
        loader = EventStreamLoader(*stream(10), batch_size=4)
        sizes = [len(b) for b in loader]
        assert sizes == [4, 4, 2]
        assert len(loader) == 3

    def test_events_concatenate_back_to_the_stream(self):
        src, dst, time = stream(10)
        loader = EventStreamLoader(src, dst, time, batch_size=3)
        np.testing.assert_array_equal(
            np.concatenate([b.time for b in loader]), time
        )
        np.testing.assert_array_equal(
            np.concatenate([b.src for b in loader]), src
        )

    def test_a_timestamp_tie_may_split_across_batches(self):
        # Events 3 and 4 share time 3.0; batch_size=4 puts the boundary
        # exactly between them — count batching slices by position.
        loader = EventStreamLoader(*stream(10), batch_size=4)
        batches = list(loader)
        assert batches[0].t_hi == 3.0
        assert batches[1].t_lo == 3.0

    def test_single_batch_when_batch_size_exceeds_stream(self):
        loader = EventStreamLoader(*stream(5), batch_size=100)
        assert len(loader) == 1
        assert list(loader)[0].num_events == 5


class TestWindowBatching:
    def test_half_open_windows_partition_the_timeline(self):
        src = np.zeros(6, dtype=int)
        dst = np.ones(6, dtype=int)
        time = np.array([0.0, 0.5, 1.0, 1.5, 3.0, 3.5])
        loader = EventStreamLoader(src, dst, time, window=1.0)
        spans = [(b.t_lo, b.t_hi) for b in loader if len(b)]
        assert spans == [(0.0, 0.5), (1.0, 1.5), (3.0, 3.5)]

    def test_a_boundary_tie_never_splits(self):
        # Three events share t=2.0, exactly on a window boundary: all of
        # them open the second window together (half-open intervals).
        src = np.zeros(5, dtype=int)
        dst = np.ones(5, dtype=int)
        time = np.array([0.0, 1.9, 2.0, 2.0, 2.0])
        loader = EventStreamLoader(src, dst, time, window=2.0)
        batches = list(loader)
        assert [len(b) for b in batches] == [2, 3]
        np.testing.assert_array_equal(batches[1].time, [2.0, 2.0, 2.0])

    def test_empty_windows_are_kept_by_default(self):
        src = np.zeros(2, dtype=int)
        dst = np.ones(2, dtype=int)
        time = np.array([0.0, 5.0])
        loader = EventStreamLoader(src, dst, time, window=1.0)
        sizes = [len(b) for b in loader]
        assert sizes == [1, 0, 0, 0, 0, 1]
        empty = list(loader)[2]
        assert empty.num_events == 0
        assert np.isnan(empty.t_lo) and np.isnan(empty.t_hi)

    def test_drop_empty_skips_quiet_windows(self):
        src = np.zeros(2, dtype=int)
        dst = np.ones(2, dtype=int)
        time = np.array([0.0, 5.0])
        loader = EventStreamLoader(src, dst, time, window=1.0, drop_empty=True)
        assert [len(b) for b in loader] == [1, 1]


class TestValidation:
    def test_out_of_order_stream_is_rejected_with_the_position(self):
        src, dst, time = stream(6)
        time = time.copy()
        time[3] = 0.5  # reaches back
        with pytest.raises(ValueError, match="event stream is out of order"):
            EventStreamLoader(src, dst, time, batch_size=2)
        with pytest.raises(ValueError, match="event 3"):
            EventStreamLoader(src, dst, time, batch_size=2)

    def test_exactly_one_batching_policy_is_required(self):
        src, dst, time = stream(4)
        with pytest.raises(ValueError, match="exactly one"):
            EventStreamLoader(src, dst, time)
        with pytest.raises(ValueError, match="exactly one"):
            EventStreamLoader(src, dst, time, batch_size=2, window=1.0)

    def test_column_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="disagree on length"):
            EventStreamLoader([0, 1], [1], [0.0, 1.0], batch_size=1)

    def test_nonpositive_sizes_are_rejected(self):
        src, dst, time = stream(4)
        with pytest.raises(ValueError):
            EventStreamLoader(src, dst, time, batch_size=0)
        with pytest.raises(ValueError):
            EventStreamLoader(src, dst, time, window=0.0)

    def test_empty_stream_yields_no_batches(self):
        empty = np.empty(0)
        for kw in ({"batch_size": 4}, {"window": 1.0}):
            loader = EventStreamLoader(empty, empty, empty, **kw)
            assert len(loader) == 0
            assert list(loader) == []


class TestReplayAndBatches:
    def test_from_graph_replays_all_edges_in_time_order(self, tiny_graph):
        loader = EventStreamLoader.from_graph(tiny_graph, batch_size=4)
        assert loader.num_events == tiny_graph.num_edges
        times = np.concatenate([b.time for b in loader])
        np.testing.assert_array_equal(times, tiny_graph.time)

    def test_from_graph_accepts_any_edge_id_order(self, tiny_graph):
        ids = np.array([7, 2, 9, 0])
        loader = EventStreamLoader.from_graph(tiny_graph, ids, batch_size=2)
        times = np.concatenate([b.time for b in loader])
        np.testing.assert_array_equal(times, tiny_graph.time[np.sort(ids)])

    def test_batches_carry_weights(self):
        src, dst, time = stream(4)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        loader = EventStreamLoader(src, dst, time, w, batch_size=3)
        batches = list(loader)
        np.testing.assert_array_equal(batches[0].weight, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(batches[1].weight, [4.0])
        unweighted = next(iter(EventStreamLoader(src, dst, time, batch_size=3)))
        np.testing.assert_array_equal(unweighted.weight, np.ones(3))

    def test_columns_feed_graph_growth_directly(self, tiny_graph):
        base, held = tiny_graph.split_recent(0.3)
        g = base.copy()
        for batch in EventStreamLoader.from_graph(tiny_graph, held, batch_size=2):
            g.extend_in_place(batch)
        g.compact()
        np.testing.assert_array_equal(g.time, tiny_graph.time)

    def test_event_batch_len_and_bounds(self):
        b = validate_event_columns([0, 1], [1, 2], [1.0, 2.0])
        assert isinstance(b, EventBatch)
        assert len(b) == 2 and b.num_events == 2
        assert b.t_lo == 1.0 and b.t_hi == 2.0
        tail = b.slice(1, 2)
        assert isinstance(tail, EventBatch) and tail.t_lo == tail.t_hi == 2.0
