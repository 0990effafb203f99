"""Streaming benchmark: amortized ingestion, WAL cost, serving latency.

Three measurements, saved to ``benchmarks/results/streaming.txt``:

1. **Ingest throughput** — replay a 50k-event synthetic stream, validated
   once into :class:`~repro.storage.EventBatch` micro-batches, into a base
   graph through the ``extend_in_place()`` append buffer (one compaction per
   ``compact_every`` events).  The replayed graph must be bitwise identical
   to a from-scratch ``TemporalGraph.from_edges`` build over the base plus
   every batch — the buffering is bookkeeping, not semantics.

2. **Durability cost** — the same amortized replay with every batch also
   appended to a :class:`~repro.stream.wal.WriteAheadLog` first (the
   crash-safe ingest path).  The WAL-on replay must stay within
   ``MAX_WAL_SLOWDOWN`` of WAL-off: durability is a tax, not a cliff.

3. **Serving latency while training** — drive an ``OnlineService`` over a
   trained EHNA: ingest micro-batches, absorb every few batches, and issue a
   time-anchored encode query per batch.  Reports sustained ingest
   events/sec and encode p50/p99 latency.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py -q -s
"""

from __future__ import annotations

import os
import shutil
import timeit

import numpy as np

from repro.core import EHNA
from repro.datasets import load
from repro.graph import TemporalGraph
from repro.storage import validate_event_columns
from repro.stream import EventStreamLoader, OnlineService, WriteAheadLog

NUM_NODES = 2000
BASE_EVENTS = 10_000
STREAM_EVENTS = 50_000
BATCH = 250
COMPACT_EVERY = 4096
REPEATS = 2

#: Durable ingest (WAL append before apply) may cost at most this factor
#: over the WAL-off amortized path.
MAX_WAL_SLOWDOWN = 2.0


def synthetic_stream(seed=0):
    """Base graph + a 50k-event stream after its head, in validated batches."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, size=BASE_EVENTS)
    dst = (src + 1 + rng.integers(0, NUM_NODES - 1, size=BASE_EVENTS)) % NUM_NODES
    time = np.sort(rng.uniform(0.0, 1000.0, size=BASE_EVENTS))
    base = TemporalGraph.from_edges(src, dst, time, num_nodes=NUM_NODES)

    s_src = rng.integers(0, NUM_NODES, size=STREAM_EVENTS)
    s_dst = (
        s_src + 1 + rng.integers(0, NUM_NODES - 1, size=STREAM_EVENTS)
    ) % NUM_NODES
    s_time = 1000.0 + np.sort(rng.uniform(0.0, 5000.0, size=STREAM_EVENTS))
    stream = validate_event_columns(s_src, s_dst, s_time)
    batches = [stream.slice(lo, lo + BATCH) for lo in range(0, STREAM_EVENTS, BATCH)]
    return base, batches


def replay_amortized(base, batches) -> TemporalGraph:
    g = base.copy()
    for batch in batches:
        g.extend_in_place(batch, compact_every=COMPACT_EVERY)
    g.compact()
    return g


def replay_amortized_with_wal(base, batches, wal_dir) -> TemporalGraph:
    """The crash-safe ingest path: durably log each batch, then apply it."""
    shutil.rmtree(wal_dir, ignore_errors=True)
    wal = WriteAheadLog(wal_dir, sync="batch")
    g = base.copy()
    for batch in batches:
        wal.append(batch)
        g.extend_in_place(batch, compact_every=COMPACT_EVERY)
    wal.close()
    g.compact()
    return g


def test_streaming_ingest_and_latency(save_result, tmp_path):
    base, batches = synthetic_stream()

    t_amortized = min(
        timeit.repeat(lambda: replay_amortized(base, batches), number=1, repeat=REPEATS)
    )

    t_wal = min(
        timeit.repeat(
            lambda: replay_amortized_with_wal(base, batches, tmp_path / "wal"),
            number=1,
            repeat=REPEATS,
        )
    )
    wal_slowdown = t_wal / t_amortized
    wal_bytes = sum(
        p.stat().st_size for p in (tmp_path / "wal").glob("wal-*.log")
    )

    # Same events, same graph — bitwise (amortization must be invisible).
    amortized = replay_amortized(base, batches)
    columns = [
        np.concatenate([getattr(base, name), *(getattr(b, name) for b in batches)])
        for name in ("src", "dst", "time")
    ]
    rebuilt = TemporalGraph.from_edges(*columns, num_nodes=NUM_NODES)
    np.testing.assert_array_equal(amortized.src, rebuilt.src)
    np.testing.assert_array_equal(amortized.dst, rebuilt.dst)
    np.testing.assert_array_equal(amortized.time, rebuilt.time)
    for a, b in zip(amortized.incidence_csr(), rebuilt.incidence_csr()):
        np.testing.assert_array_equal(a, b)

    # Serving: stream the held-out suffix through a trained EHNA while
    # answering one time-anchored query per micro-batch.
    graph = load("digg", scale=0.3, seed=0)
    train, held = graph.split_recent(0.3)
    model = EHNA(
        dim=16, epochs=1, num_walks=2, walk_length=4, batch_size=128, seed=0
    )
    model.fit(train)
    service = OnlineService(model, compact_every=512, train_every=4)
    query_nodes = np.arange(8)
    for batch in EventStreamLoader.from_graph(graph, held, batch_size=50):
        service.ingest(batch)
        service.encode(query_nodes, at=batch.t_lo)
    service.absorb()
    stats = service.stats()

    lines = [
        "Streaming ingestion + online serving",
        f"machine: os.cpu_count()={os.cpu_count()}, "
        f"usable cores={len(os.sched_getaffinity(0))}",
        "",
        f"50k-event replay into a {BASE_EVENTS}-edge base graph "
        f"({len(batches)} batches of {BATCH}):",
        f"  extend_in_place (compact every {COMPACT_EVERY}): "
        f"{t_amortized * 1e3:9.1f} ms  "
        f"({STREAM_EVENTS / t_amortized:,.0f} events/s; "
        "bitwise equal to from_edges)",
        "",
        "Durable ingest (WAL append before every apply, sync=batch):",
        f"  WAL off: {t_amortized * 1e3:9.1f} ms   "
        f"WAL on: {t_wal * 1e3:9.1f} ms",
        f"  slowdown: {wal_slowdown:.2f}x  "
        f"(required <= {MAX_WAL_SLOWDOWN:.0f}x; "
        f"{wal_bytes / 1e6:.1f} MB logged across "
        f"{len(list((tmp_path / 'wal').glob('wal-*.log')))} segments)",
        "",
        f"Online service (EHNA, digg x0.3, {stats['events_ingested']} streamed "
        f"events, absorb every 4 batches):",
        f"  ingest throughput: {stats['ingest_events_per_sec']:,.0f} events/s",
        f"  absorbs: {stats['absorbs']}  "
        f"(train time {stats['absorb_seconds']:.2f} s)",
        f"  encode latency over {stats['encode_queries']} queries: "
        f"p50 {stats['encode_p50_ms']:.2f} ms, p99 {stats['encode_p99_ms']:.2f} ms, "
        f"mean {stats['encode_mean_ms']:.2f} ms",
    ]
    save_result("streaming", "\n".join(lines))

    assert wal_slowdown <= MAX_WAL_SLOWDOWN, (
        f"WAL-enabled ingest is {wal_slowdown:.2f}x slower than WAL-off "
        f"(budget <= {MAX_WAL_SLOWDOWN}x)"
    )
    assert stats["encode_p99_ms"] >= stats["encode_p50_ms"] > 0.0
    assert stats["staleness_events"] == 0
