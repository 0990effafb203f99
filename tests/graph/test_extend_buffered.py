"""The amortized (buffered) graph-growth path: extend_in_place/compact.

The contract under test: no matter how ``extend_in_place`` / ``compact`` /
reads interleave, the graph is indistinguishable from a from-scratch
``from_edges`` build over the same events in the same arrival order —
bitwise, down to tie order (both paths rely on the same stable sort).  The
seeded property sweep drives randomized interleavings; the stress-marked
variant widens it to ~200 cases (``make test-stream``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import TemporalGraph
from repro.storage import validate_event_columns


def random_events(rng, n_nodes, n_events, t_lo=0.0, t_hi=100.0):
    """One batch of random events (ties are likely: times are coarse)."""
    src = rng.integers(0, n_nodes, size=n_events)
    dst = (src + 1 + rng.integers(0, n_nodes - 1, size=n_events)) % n_nodes
    time = np.round(rng.uniform(t_lo, t_hi, size=n_events), 1)
    weight = rng.uniform(0.5, 2.0, size=n_events)
    return src, dst, time, weight


def assert_graphs_bitwise_equal(got: TemporalGraph, want: TemporalGraph):
    assert got.num_nodes == want.num_nodes
    assert got.num_edges == want.num_edges
    np.testing.assert_array_equal(got.src, want.src)
    np.testing.assert_array_equal(got.dst, want.dst)
    np.testing.assert_array_equal(got.time, want.time)
    np.testing.assert_array_equal(got.weight, want.weight)
    for a, b in zip(got.incidence_csr(), want.incidence_csr()):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(got.distinct_csr(), want.distinct_csr()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.times01(), want.times01())


def assert_invariants(g: TemporalGraph):
    """Structural invariants every reader relies on."""
    t = g.time
    assert np.all(np.diff(t) >= 0), "edge table must stay time-sorted"
    offsets, nbrs, times, _weights, eids = g.incidence_csr()
    assert offsets[0] == 0 and offsets[-1] == eids.size
    for v in range(g.num_nodes):
        seg = times[offsets[v] : offsets[v + 1]]
        assert np.all(np.diff(seg) >= 0), f"node {v} incidence not time-sorted"


class TestBufferedAccounting:
    def test_pending_events_and_num_edges_include_the_buffer(self, path_graph):
        g = path_graph.copy()
        assert g.pending_events == 0
        g.extend_in_place(validate_event_columns([0], [2], [5.0]))
        g.extend_in_place(validate_event_columns([1], [3], [6.0]))
        assert g.pending_events == 2
        assert g.num_edges == 6  # 4 compacted + 2 buffered
        assert g.compactions == 0

    def test_any_reader_compacts_transparently(self, path_graph):
        g = path_graph.copy()
        g.extend_in_place(validate_event_columns([0], [2], [5.0]))
        assert g.time[-1] == 5.0  # the read absorbed the buffer
        assert g.pending_events == 0
        assert g.compactions == 1

    def test_compact_every_triggers_automatically(self, path_graph):
        g = path_graph.copy()
        for i in range(5):
            g.extend_in_place(validate_event_columns([0], [1], [10.0 + i]), compact_every=3)
        # 3 events tripped one compaction; 2 are still buffered.
        assert g.compactions == 1
        assert g.pending_events == 2

    def test_compact_returns_sorted_fresh_positions(self, path_graph):
        g = path_graph.copy()
        g.extend_in_place(validate_event_columns([0], [1], [0.5]))  # lands before everything
        g.extend_in_place(validate_event_columns([2], [3], [9.0]))  # lands at the end
        fresh = g.compact()
        np.testing.assert_array_equal(fresh, [0, 5])
        np.testing.assert_array_equal(g.time[fresh], [0.5, 9.0])

    def test_compact_with_empty_buffer_is_a_noop(self, path_graph):
        g = path_graph.copy()
        assert g.compact().size == 0
        assert g.compactions == 0

    def test_empty_batch_is_a_noop(self, path_graph):
        g = path_graph.copy()
        g.extend_in_place(validate_event_columns(np.empty(0, int), np.empty(0, int), np.empty(0)))
        assert g.pending_events == 0
        assert g.num_edges == 4

    def test_num_nodes_grows_with_new_ids_and_headroom(self, path_graph):
        g = path_graph.copy()
        g.extend_in_place(validate_event_columns([5], [6], [9.0]))
        assert g.num_nodes == 7
        g.extend_in_place(validate_event_columns([0], [1], [9.5]), num_nodes=10)
        assert g.num_nodes == 10

    def test_num_nodes_too_small_is_rejected(self, path_graph):
        g = path_graph.copy()
        with pytest.raises(ValueError, match="num_nodes=3 too small"):
            g.extend_in_place(validate_event_columns([7], [0], [9.0]), num_nodes=3)


class TestTakeFresh:
    def test_take_fresh_claims_each_event_exactly_once(self, path_graph):
        g = path_graph.copy()
        g.extend_in_place(validate_event_columns([0], [2], [5.0]))
        fresh = g.take_fresh()
        assert fresh.size == 1
        assert g.time[fresh[0]] == 5.0
        assert g.take_fresh().size == 0  # claimed, not re-delivered

    def test_take_fresh_accumulates_across_compactions(self, path_graph):
        g = path_graph.copy()
        g.extend_in_place(validate_event_columns([0], [2], [5.0]))
        g.compact()
        g.extend_in_place(validate_event_columns([1], [3], [0.5]))  # sorts before the first batch
        fresh = g.take_fresh()
        # Both unclaimed events, at their *current* (re-sorted) positions.
        np.testing.assert_array_equal(np.sort(g.time[fresh]), [0.5, 5.0])
        assert fresh.size == 2


class TestCopy:
    def test_copy_shares_arrays_but_not_growth(self, path_graph):
        g = path_graph.copy()
        twin = g.copy()
        assert twin.src is g.src
        g.extend_in_place(validate_event_columns([0], [2], [5.0]))
        g.compact()
        assert g.num_edges == 5
        assert twin.num_edges == 4
        assert twin.pending_events == 0
        assert twin.time[-1] == 4.0

    def test_copy_flushes_the_source_buffer_first(self, path_graph):
        g = path_graph.copy()
        g.extend_in_place(validate_event_columns([0], [2], [5.0]))
        twin = g.copy()
        assert twin.num_edges == 5
        assert twin.pending_events == 0

    def test_copy_preserves_unabsorbed_events_independently(self, path_graph):
        g = path_graph.copy()
        g.extend_in_place(validate_event_columns([0], [2], [5.0]))
        twin = g.copy()
        assert twin.take_fresh().size == 1
        assert g.take_fresh().size == 1  # the original's claim is its own


class TestPinnedTimeScale:
    def test_pinned_scale_freezes_times01_as_the_head_grows(self, path_graph):
        g = path_graph.copy().pin_time_scale()
        before = g.times01().copy()
        g.extend_in_place(validate_event_columns([0], [1], [10.0]))
        g.compact()
        np.testing.assert_array_equal(g.times01()[:4], before)
        # The new event scales beyond 1 instead of squashing history.
        assert g.times01()[-1] > 1.0

    def test_unpinned_scale_rescales_live(self, path_graph):
        g = path_graph.copy()
        before = g.times01().copy()
        g.extend_in_place(validate_event_columns([0], [1], [10.0]))
        g.compact()
        assert not np.array_equal(g.times01()[:4], before)

    def test_pin_propagates_through_compact_and_copy(self, path_graph):
        g = path_graph.copy().pin_time_scale()
        span = g.time_scale
        twin = g.copy()
        assert twin.time_scale == span
        twin.extend_in_place(validate_event_columns([0], [1], [10.0]))
        twin.compact()
        assert twin.time_scale == span

    def test_pin_validates_its_span(self, path_graph):
        g = path_graph.copy()
        with pytest.raises(ValueError):
            g.pin_time_scale(lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            g.pin_time_scale(lo=0.0, hi=float("inf"))


def _random_interleaving(seed: int):
    """Drive one random op sequence; return (buffered graph, event log)."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(4, 12))
    src, dst, time, weight = random_events(rng, n_nodes, int(rng.integers(3, 10)))
    g = TemporalGraph.from_edges(src, dst, time, weight, num_nodes=n_nodes)
    log = [(src, dst, time, weight)]
    for _ in range(int(rng.integers(3, 9))):
        op = rng.integers(0, 4)
        if op == 0:  # buffered append
            batch = random_events(rng, n_nodes, int(rng.integers(1, 6)))
            g.extend_in_place(validate_event_columns(*batch))
            log.append(batch)
        elif op == 1:  # append with auto-compaction threshold
            batch = random_events(rng, n_nodes, int(rng.integers(1, 6)))
            g.extend_in_place(validate_event_columns(*batch), compact_every=int(rng.integers(1, 8)))
            log.append(batch)
        elif op == 2:
            g.compact()
        else:  # a read mid-stream (forces compaction via a reader)
            assert np.all(np.diff(g.time) >= 0)
    return g, log


def _from_scratch(log, num_nodes) -> TemporalGraph:
    src = np.concatenate([b[0] for b in log])
    dst = np.concatenate([b[1] for b in log])
    time = np.concatenate([b[2] for b in log])
    weight = np.concatenate([b[3] for b in log])
    return TemporalGraph.from_edges(src, dst, time, weight, num_nodes=num_nodes)


def _check_case(seed: int):
    g, log = _random_interleaving(seed)
    reference = _from_scratch(log, g.num_nodes)
    assert_invariants(g)
    assert_graphs_bitwise_equal(g, reference)


@pytest.mark.parametrize("seed", range(30))
def test_property_interleavings_match_from_scratch(seed):
    """Tier-1 slice of the sweep: 30 random interleavings, bitwise equal."""
    _check_case(seed)


@pytest.mark.stress
@pytest.mark.parametrize("seed", range(30, 230))
def test_property_interleavings_match_from_scratch_stress(seed):
    """The full ~200-case sweep (make test-stream)."""
    _check_case(seed)
