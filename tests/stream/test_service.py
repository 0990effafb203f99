"""OnlineService: the ingest -> absorb -> encode loop and its counters."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import EHNA
from repro.datasets import load
from repro.stream import EventStreamLoader, LatencyTracker, OnlineService, ThroughputTracker


@pytest.fixture(scope="module")
def fitted():
    """A small trained EHNA plus the held-out suffix it has not seen."""
    graph = load("digg", scale=0.05, seed=0)
    train, held = graph.split_recent(0.3)
    model = EHNA(
        dim=8, epochs=1, num_walks=2, walk_length=4, batch_size=64, seed=0
    )
    model.fit(train)
    return model, graph, held


def make_service(model, **kw):
    return OnlineService(model, **kw)


def clone(model):
    """Fresh model per test (the module fixture must stay pristine)."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        return EHNA.load(model.save(Path(tmp) / "m.npz"))


class TestLifecycle:
    def test_requires_a_fitted_model(self):
        with pytest.raises(RuntimeError, match="call fit"):
            OnlineService(EHNA(dim=8))

    def test_ingest_then_absorb_clears_staleness(self, fitted):
        model, graph, held = fitted
        svc = make_service(clone(model))
        loader = EventStreamLoader.from_graph(graph, held, batch_size=16)
        for batch in loader:
            svc.ingest(batch)
        assert svc.staleness == loader.num_events
        svc.absorb()
        assert svc.staleness == 0
        assert svc.graph.num_edges == graph.num_edges
        assert svc.stats()["absorbs"] == 1

    def test_train_every_auto_absorbs(self, fitted):
        model, graph, held = fitted
        svc = make_service(clone(model), train_every=2)
        loader = EventStreamLoader.from_graph(graph, held, batch_size=12)
        for batch in loader:
            svc.ingest(batch)
        # 4 batches with train_every=2: absorbs fire after batches 2 and 4,
        # so every event is absorbed by the end of the replay.
        assert svc.stats()["absorbs"] == len(loader) // 2
        assert svc.staleness == 0

    def test_zero_event_absorb_is_a_noop(self, fitted):
        model, *_ = fitted
        m = clone(model)
        svc = make_service(m)
        weights = m.embedding.weight.data.copy()
        final = m.embeddings().copy()
        seed = m._infer_seed
        svc.absorb()
        np.testing.assert_array_equal(m.embedding.weight.data, weights)
        np.testing.assert_array_equal(m.embeddings(), final)
        assert m._infer_seed == seed
        assert svc.stats()["absorbs"] == 0

    def test_empty_batch_ticks_the_absorb_schedule(self, fitted):
        model, graph, held = fitted
        svc = make_service(clone(model), train_every=1)
        empty = (np.empty(0, int), np.empty(0, int), np.empty(0))
        svc.ingest(empty)  # quiet window: no events, but a scheduled tick
        assert svc.stats()["batches_ingested"] == 1
        assert svc.stats()["events_ingested"] == 0
        assert svc.stats()["absorbs"] == 0  # nothing to train on

    def test_out_of_order_ingest_is_rejected(self, fitted):
        model, graph, held = fitted
        svc = make_service(clone(model))
        t_old = float(model.graph.time[0])
        with pytest.raises(ValueError, match="out-of-order ingest"):
            svc.ingest(([0], [1], [t_old]))

    def test_ingest_accepts_row_matrices_too(self, fitted):
        model, *_ = fitted
        m = clone(model)
        svc = make_service(m)
        head = float(m.graph.time[-1])
        svc.ingest(np.array([[0, 1, head + 1.0], [1, 2, head + 2.0]]))
        assert svc.stats()["events_ingested"] == 2


class TestServing:
    def test_encode_is_timed_and_shaped(self, fitted):
        model, *_ = fitted
        svc = make_service(clone(model))
        out = svc.encode([0, 1, 2])
        assert out.shape == (3, model.config.dim)
        stats = svc.stats()
        assert stats["encode_queries"] == 1
        assert stats["encode_p99_ms"] >= stats["encode_p50_ms"] >= 0.0

    def test_pinned_scale_is_the_default(self, fitted):
        model, *_ = fitted
        m = clone(model)
        span = m.graph.time_span
        make_service(m)
        assert m.graph.time_scale == span

    def test_stats_track_the_full_loop(self, fitted):
        model, graph, held = fitted
        svc = make_service(clone(model), compact_every=8, train_every=2)
        loader = EventStreamLoader.from_graph(graph, held, batch_size=16)
        for batch in loader:
            svc.ingest(batch)
            svc.encode([0, 1], at=batch.t_lo)
        svc.absorb()
        s = svc.stats()
        assert s["events_ingested"] == loader.num_events
        assert s["ingest_events_per_sec"] > 0
        assert s["compactions"] >= 1
        assert s["pending_events"] == 0
        assert s["encode_queries"] == len(loader)
        assert s["staleness_events"] == 0
        assert s["absorb_seconds"] > 0

    def test_ingest_rate_times_whole_calls_less_auto_absorbs(
        self, fitted, monkeypatch
    ):
        import repro.stream.service as service_module

        parse = service_module.parse_edge_batch

        def slow_parse(events):
            time.sleep(0.002)  # outside the graph append
            return parse(events)

        monkeypatch.setattr(service_module, "parse_edge_batch", slow_parse)
        model, graph, held = fitted
        svc = make_service(clone(model), train_every=2)
        loader = EventStreamLoader.from_graph(graph, held, batch_size=16)
        outside = 0.0
        for batch in loader:
            t0 = time.perf_counter()
            svc.ingest(batch)
            outside += time.perf_counter() - t0
        timed = svc.ingest_throughput.seconds
        assert timed >= 0.002 * len(loader)
        assert svc.absorb_seconds > 0
        assert timed <= outside - svc.absorb_seconds + 1e-9

    def test_absorbed_events_change_the_served_table(self, fitted):
        model, graph, held = fitted
        m = clone(model)
        svc = make_service(m)
        before = m.embeddings().copy()
        for batch in EventStreamLoader.from_graph(graph, held, batch_size=16):
            svc.ingest(batch)
        svc.absorb()
        after = m.embeddings()
        assert after.shape[0] >= before.shape[0]
        assert not np.array_equal(after[: before.shape[0]], before)


class TestMetrics:
    def test_latency_tracker_percentiles(self):
        tr = LatencyTracker()
        for s in (0.001, 0.002, 0.010):
            tr.record(s)
        stats = tr.stats()
        assert stats["count"] == 3
        assert stats["p50_ms"] == pytest.approx(2.0)
        assert stats["p99_ms"] <= stats["max_ms"] == pytest.approx(10.0)
        assert tr.percentile(50) == pytest.approx(2.0)

    def test_empty_trackers_report_zeros(self):
        assert LatencyTracker().stats() == {
            "count": 0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "mean_ms": 0.0,
            "max_ms": 0.0,
        }
        assert ThroughputTracker().events_per_sec == 0.0

    def test_throughput_accumulates(self):
        tr = ThroughputTracker()
        tr.add(100, 0.5)
        tr.add(100, 0.5)
        assert tr.events_per_sec == pytest.approx(200.0)
