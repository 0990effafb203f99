"""Memmap-backed graphs must be *bitwise* equal to in-memory ones.

The storage seam's whole contract is that the backend is invisible above
``TemporalGraph``: same CSR arrays, same walks under the same seed, same
train-step loss and gradients.  These tests pin that on every seed dataset,
so a backend divergence can never masquerade as a modeling change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EHNA, FlatParams
from repro.datasets import load, load_cache_clear
from repro.datasets.registry import PAPER_DATASETS
from repro.graph.temporal_graph import TemporalGraph
from repro.storage import validate_event_columns
from repro.stream import EventStreamLoader
from repro.walks.engine import BatchedWalkEngine


@pytest.fixture(autouse=True)
def fresh_cache():
    load_cache_clear()
    yield
    load_cache_clear()


@pytest.fixture(params=PAPER_DATASETS)
def backend_pair(request, tmp_path):
    """(in-memory graph, memmap-backed graph) for one seed dataset."""
    name = request.param
    g_mem = load(name, scale=0.05, seed=13)
    g_map = load(name, scale=0.05, seed=13, storage=tmp_path / name)
    assert g_mem.storage_backend == "memory"
    assert g_map.storage_backend == "memmap"
    return g_mem, g_map


class TestBackendEquality:
    def test_event_columns_bitwise_equal(self, backend_pair):
        g_mem, g_map = backend_pair
        assert g_mem.num_nodes == g_map.num_nodes
        assert g_mem.num_edges == g_map.num_edges
        for col in ("src", "dst", "time", "weight"):
            a, b = getattr(g_mem, col), getattr(g_map, col)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_csr_bitwise_equal(self, backend_pair):
        g_mem, g_map = backend_pair
        for a, b in zip(g_mem.incidence_csr(), g_map.incidence_csr()):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_walks_bitwise_equal_under_fixed_seed(self, backend_pair):
        g_mem, g_map = backend_pair
        starts = np.arange(min(16, g_mem.num_nodes), dtype=np.int64)
        anchors = np.full(starts.size, float(g_mem.time[-1]) + 1.0)
        walks_mem = BatchedWalkEngine(g_mem).temporal(
            starts, anchors, length=5, rng=np.random.default_rng(99)
        )
        walks_map = BatchedWalkEngine(g_map).temporal(
            starts, anchors, length=5, rng=np.random.default_rng(99)
        )
        assert len(walks_mem) == len(walks_map)
        for wa, wb in zip(walks_mem, walks_map):
            assert wa.nodes == wb.nodes
            assert wa.edge_times == wb.edge_times

    def test_one_fused_train_step_bitwise_equal(self, backend_pair):
        g_mem, g_map = backend_pair
        edge_ids = np.arange(min(32, g_mem.num_edges), dtype=np.int64)
        losses, weights = [], []
        for graph in (g_mem, g_map):
            model = EHNA(
                dim=8, num_walks=2, walk_length=3, num_negatives=2, seed=21
            )
            model._build_runtime(graph)
            flat = FlatParams(model._named_parameters())
            model.aggregator.train()
            losses.append(model._train_step(edge_ids, flat, model._make_optimizer(flat)))
            weights.append(model.embedding.weight.data.copy())
        assert losses[0] == losses[1]
        np.testing.assert_array_equal(weights[0], weights[1])


class TestStreamFromStorage:
    def test_batches_match_from_graph_replay(self, backend_pair):
        g_mem, g_map = backend_pair
        by_graph = EventStreamLoader.from_graph(g_mem, batch_size=64)
        by_store = EventStreamLoader.from_storage(g_map.storage, batch_size=64)
        assert len(by_graph) == len(by_store)
        for a, b in zip(by_graph, by_store):
            np.testing.assert_array_equal(a.src, b.src)
            np.testing.assert_array_equal(a.time, b.time)
            np.testing.assert_array_equal(a.weight, b.weight)

    def test_storage_batches_are_views_of_the_map(self, backend_pair):
        _, g_map = backend_pair
        loader = EventStreamLoader.from_storage(g_map.storage, batch_size=64)
        # No copy happened: the loader's columns are the store's own maps.
        assert loader.events.time.base is not None


class TestMemmapGraphStack:
    """The memmap-backed graph behaves through the rest of the stack."""

    def test_from_storage_roundtrip_via_extend(self, backend_pair):
        g_mem, g_map = backend_pair
        # Growing a memmap-backed graph compacts into memory (storage is
        # read-oriented; mutation always materializes fresh arrays) and
        # matches growing the in-memory twin event-for-event.
        new_src = np.array([0, 1], dtype=np.int64)
        new_dst = np.array([2, 3], dtype=np.int64)
        new_t = np.full(2, float(g_mem.time[-1]) + 5.0)
        a, b = g_mem.copy(), g_map.copy()
        a.extend_in_place(validate_event_columns(new_src, new_dst, new_t))
        b.extend_in_place(validate_event_columns(new_src, new_dst, new_t))
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.time, b.time)
        assert b.storage_backend == "memory"  # compaction materialized

    def test_copy_keeps_backend(self, backend_pair):
        _, g_map = backend_pair
        assert g_map.copy().storage_backend == "memmap"
