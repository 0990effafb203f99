"""The datasets.load LRU memoization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load, load_cache_clear, load_cache_info
from repro.datasets.registry import LOAD_CACHE_SIZE
from repro.storage import validate_event_columns


@pytest.fixture(autouse=True)
def fresh_cache():
    load_cache_clear()
    yield
    load_cache_clear()


class TestLoadCache:
    def test_repeat_load_hits_cache(self):
        g1 = load("digg", scale=0.05, seed=3)
        info = load_cache_info()
        assert info["misses"] == 1 and info["hits"] == 0
        g2 = load("digg", scale=0.05, seed=3)
        info = load_cache_info()
        assert info["hits"] == 1
        # A caller-owned copy of the memoized graph, not a regeneration:
        # the underlying edge arrays are shared, the object is fresh.
        assert g2 is not g1
        assert g2.src is g1.src
        assert g2.time is g1.time

    def test_distinct_signatures_miss(self):
        load("digg", scale=0.05, seed=3)
        load("digg", scale=0.05, seed=4)
        load("digg", scale=0.1, seed=3)
        load("yelp", scale=0.05, seed=3)
        assert load_cache_info()["hits"] == 0
        assert load_cache_info()["misses"] == 4

    def test_labels_flag_is_part_of_the_key(self):
        g = load("digg", scale=0.05, seed=5)
        pair = load("digg", scale=0.05, seed=5, labels=True)
        assert load_cache_info()["misses"] == 2
        graph, labels = pair
        assert labels.shape == (graph.num_nodes,)
        # Hitting the labeled entry returns an equivalent pair.
        graph2, labels2 = load("digg", scale=0.05, seed=5, labels=True)
        assert load_cache_info()["hits"] == 1
        assert graph2.src is graph.src  # shared arrays, no regeneration
        np.testing.assert_array_equal(labels2, labels)
        # Same seed => bitwise the same graph either way.
        np.testing.assert_array_equal(graph.src, g.src)
        np.testing.assert_array_equal(graph.time, g.time)

    def test_cached_graph_is_isolated_from_a_callers_extend(self):
        g1 = load("digg", scale=0.05, seed=11)
        n, m = g1.num_nodes, g1.num_edges
        head = g1.time[-1]
        g1.extend_in_place(validate_event_columns([0], [1], [head + 1.0]))
        g1.compact()
        assert g1.num_edges == m + 1
        # A second load sees the pristine graph, not the grown one.
        g2 = load("digg", scale=0.05, seed=11)
        assert load_cache_info()["hits"] == 1
        assert g2.num_edges == m
        assert g2.num_nodes == n
        assert g2.pending_events == 0
        assert g2.time[-1] == head

    def test_cached_labels_are_isolated_from_in_place_edits(self):
        _, labels = load("digg", scale=0.05, seed=12, labels=True)
        original = labels.copy()
        labels[:] = -1
        _, labels2 = load("digg", scale=0.05, seed=12, labels=True)
        np.testing.assert_array_equal(labels2, original)

    def test_seed_none_never_caches(self):
        g1 = load("digg", scale=0.05)
        g2 = load("digg", scale=0.05)
        info = load_cache_info()
        assert info["hits"] == 0 and info["size"] == 0
        assert g1 is not g2

    def test_generator_seed_never_caches(self):
        rng = np.random.default_rng(0)
        load("digg", scale=0.05, seed=rng)
        assert load_cache_info()["size"] == 0

    def test_lru_eviction_keeps_capacity_bounded(self):
        for i in range(LOAD_CACHE_SIZE + 3):
            load("digg", scale=0.05, seed=100 + i)
        info = load_cache_info()
        assert info["size"] == LOAD_CACHE_SIZE
        # The oldest entry was evicted: loading it again is a miss.
        misses = info["misses"]
        load("digg", scale=0.05, seed=100)
        assert load_cache_info()["misses"] == misses + 1
        # The newest entry survived.
        hits = load_cache_info()["hits"]
        load("digg", scale=0.05, seed=100 + LOAD_CACHE_SIZE + 2)
        assert load_cache_info()["hits"] == hits + 1

    def test_clear_resets_counters(self):
        load("digg", scale=0.05, seed=9)
        load("digg", scale=0.05, seed=9)
        load_cache_clear()
        assert load_cache_info() == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "maxsize": LOAD_CACHE_SIZE,
        }

    def test_failed_load_does_not_count_a_miss(self):
        from repro.datasets import UnknownDatasetError

        with pytest.raises(UnknownDatasetError):
            load("no-such-dataset", seed=0)
        assert load_cache_info()["misses"] == 0
        assert load_cache_info()["size"] == 0

    def test_numpy_integer_seed_caches_like_python_int(self):
        load("digg", scale=0.05, seed=np.int64(7))
        load("digg", scale=0.05, seed=7)
        assert load_cache_info()["hits"] == 1


class TestStorageBackendKey:
    """The storage backend is part of the memoization key."""

    def test_memmap_request_never_served_the_memory_entry(self, tmp_path):
        g_mem = load("digg", scale=0.05, seed=3)
        assert load_cache_info()["misses"] == 1
        g_map = load("digg", scale=0.05, seed=3, storage=tmp_path / "s")
        info = load_cache_info()
        assert info["misses"] == 2 and info["hits"] == 0
        assert g_mem.storage_backend == "memory"
        assert g_map.storage_backend == "memmap"
        # Distinct backends, bitwise-identical events.
        np.testing.assert_array_equal(g_mem.src, g_map.src)
        np.testing.assert_array_equal(g_mem.time, g_map.time)

    def test_memmap_entry_hits_and_keeps_its_backend(self, tmp_path):
        load("digg", scale=0.05, seed=3, storage=tmp_path / "s")
        g = load("digg", scale=0.05, seed=3, storage=tmp_path / "s")
        assert load_cache_info()["hits"] == 1
        assert g.storage_backend == "memmap"

    def test_distinct_store_paths_are_distinct_keys(self, tmp_path):
        load("digg", scale=0.05, seed=3, storage=tmp_path / "a")
        load("digg", scale=0.05, seed=3, storage=tmp_path / "b")
        info = load_cache_info()
        assert info["misses"] == 2 and info["hits"] == 0

    def test_reopen_after_cache_clear_reads_the_store(self, tmp_path):
        g1 = load("digg", scale=0.05, seed=3, storage=tmp_path / "s")
        load_cache_clear()
        g2 = load("digg", scale=0.05, seed=3, storage=tmp_path / "s")
        assert g2.storage_backend == "memmap"
        np.testing.assert_array_equal(g1.src, g2.src)

    def test_provenance_mismatch_rejected(self, tmp_path):
        load("digg", scale=0.05, seed=3, storage=tmp_path / "s")
        load_cache_clear()
        with pytest.raises(ValueError, match="does not match"):
            load("digg", scale=0.05, seed=4, storage=tmp_path / "s")

    def test_unknown_name_with_storage_writes_nothing(self, tmp_path):
        from repro.datasets import UnknownDatasetError

        with pytest.raises(UnknownDatasetError):
            load("no-such-dataset", seed=0, storage=tmp_path / "s")
        assert not (tmp_path / "s").exists()


class TestSharedBackendKey:
    """``shared=True`` is part of the memoization key too."""

    def test_shared_request_never_served_the_memory_entry(self):
        g_mem = load("digg", scale=0.05, seed=3)
        g_shm = load("digg", scale=0.05, seed=3, shared=True)
        info = load_cache_info()
        assert info["misses"] == 2 and info["hits"] == 0
        assert g_mem.storage_backend == "memory"
        assert g_shm.storage_backend == "shared"
        np.testing.assert_array_equal(g_mem.src, g_shm.src)
        np.testing.assert_array_equal(g_mem.time, g_shm.time)

    def test_shared_entry_hits_and_clones_share_one_segment(self):
        g1 = load("digg", scale=0.05, seed=3, shared=True)
        g2 = load("digg", scale=0.05, seed=3, shared=True)
        assert load_cache_info()["hits"] == 1
        assert g2.storage_backend == "shared"
        # Cache-served clones attach the same segment, not a new one.
        assert g2.shared_handle.name == g1.shared_handle.name

    def test_memory_request_never_served_the_shared_entry(self):
        load("digg", scale=0.05, seed=3, shared=True)
        g = load("digg", scale=0.05, seed=3)
        assert load_cache_info()["misses"] == 2
        assert g.storage_backend == "memory"
