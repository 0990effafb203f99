"""Per-case tests of graph growth: ``extend_in_place`` + ``compact``.

Sort position, tie order, fresh-id indexing, node growth and input
validation, one case each.  The buffering, ``take_fresh`` and copy contracts
and the randomized interleaving sweep live in ``test_extend_buffered.py``.
"""

import numpy as np
import pytest

from repro.graph import TemporalGraph
from repro.storage import validate_event_columns


def base_graph() -> TemporalGraph:
    return TemporalGraph.from_edges(
        src=np.array([0, 1, 2, 0]),
        dst=np.array([1, 2, 3, 2]),
        time=np.array([1.0, 2.0, 3.0, 4.0]),
        weight=np.array([1.0, 2.0, 1.0, 3.0]),
    )


def grown(src, dst, t, w=None, num_nodes=None):
    """``base_graph()`` with one batch appended and compacted."""
    g = base_graph().extend_in_place(validate_event_columns(src, dst, t, w), num_nodes=num_nodes)
    return g, g.compact()


class TestExtend:
    def test_appends_and_sorts(self):
        g, fresh = grown([3], [0], [2.5])
        assert g.num_edges == 5
        assert np.all(np.diff(g.time) >= 0)
        # The arrival with t=2.5 lands between t=2 and t=3.
        assert fresh.tolist() == [2]
        assert g.src[2] == 3 and g.dst[2] == 0

    def test_fresh_ids_index_new_graph(self):
        g, fresh = grown([1, 0], [3, 3], [0.5, 9.0])
        assert fresh.size == 2
        np.testing.assert_array_equal(np.sort(g.time[fresh]), [0.5, 9.0])
        pairs = {(int(g.src[e]), int(g.dst[e])) for e in fresh}
        assert pairs == {(1, 3), (0, 3)}

    def test_equal_times_append_after_existing(self):
        g, fresh = grown([3], [1], [2.0])  # ties with the existing t=2 edge
        assert fresh.tolist() == [2]  # stable: after the old t=2 edge (id 1)
        assert g.src[1] == 1 and g.dst[1] == 2

    def test_new_nodes_grow_id_space(self):
        g = base_graph()
        twin = g.copy().extend_in_place(validate_event_columns([0], [7], [5.0]))
        assert twin.num_nodes == 8  # grows before compaction
        assert g.num_nodes == 4  # the copy's growth is its own
        assert twin.degrees().size == 8

    def test_num_nodes_headroom(self):
        g, _ = grown([0], [1], [5.0], num_nodes=100)
        assert g.num_nodes == 100
        indptr, *_ = g.incidence_csr()
        assert indptr.size == 101

    def test_num_nodes_too_small_rejected(self):
        g = base_graph()
        with pytest.raises(ValueError, match="num_nodes"):
            g.extend_in_place(validate_event_columns([0], [7], [5.0]), num_nodes=5)
        assert g.num_nodes == 4  # rejected before any state changed
        assert g.pending_events == 0

    def test_empty_batch_is_noop(self):
        g = base_graph()
        assert g.extend_in_place(validate_event_columns([], [], [])) is g
        assert g.compact().size == 0
        assert g.take_fresh().size == 0

    def test_incidence_rebuilt(self):
        g = base_graph()
        g2, _ = grown([3], [0], [5.0])
        nbrs, times, _ = g2.events_before(3, 6.0)
        assert 0 in nbrs.tolist()
        assert g2.degrees()[3] == g.degrees()[3] + 1

    @pytest.mark.parametrize(
        "src,dst,t,w",
        [
            ([0], [0], [1.0], None),  # self-loop
            ([0], [1], [np.inf], None),  # non-finite time
            ([0], [1], [1.0], [0.0]),  # non-positive weight
            ([-1], [1], [1.0], None),  # negative id
        ],
    )
    def test_invalid_edges_rejected(self, src, dst, t, w):
        g = base_graph()
        with pytest.raises(ValueError):
            g.extend_in_place(validate_event_columns(src, dst, t, w))
        assert g.pending_events == 0

    def test_extend_matches_from_edges(self):
        """Growing must equal building the union graph from scratch."""
        g, _ = grown([3, 1], [0, 3], [2.5, 0.25], w=[2.0, 1.0])
        union = TemporalGraph.from_edges(
            src=np.array([0, 1, 2, 0, 3, 1]),
            dst=np.array([1, 2, 3, 2, 0, 3]),
            time=np.array([1.0, 2.0, 3.0, 4.0, 2.5, 0.25]),
            weight=np.array([1.0, 2.0, 1.0, 3.0, 2.0, 1.0]),
        )
        np.testing.assert_array_equal(g.src, union.src)
        np.testing.assert_array_equal(g.dst, union.dst)
        np.testing.assert_array_equal(g.time, union.time)
        np.testing.assert_array_equal(g.weight, union.weight)
