"""Serve an event stream: ingest micro-batches, absorb, answer queries.

Run:  python examples/streaming_service.py
"""

import numpy as np

from repro.core import EHNA
from repro.datasets import load
from repro.stream import EventStreamLoader, OnlineService


def main() -> None:
    # 1. Train once on the history so far; the last 30% of events becomes
    #    the "future" we will stream in.
    graph = load("digg", scale=0.2, seed=7)
    train, held = graph.split_recent(0.3)
    model = EHNA(dim=16, epochs=2, num_walks=3, walk_length=4, seed=0)
    model.fit(train)

    # 2. Wrap the fitted model in an online service.  It pins the graph's
    #    time scale (past anchors stay stable as the head advances), buffers
    #    ingested events with amortized compaction, and auto-absorbs
    #    (partial_fit) every `train_every` micro-batches.
    service = OnlineService(model, compact_every=512, train_every=4, epochs=1)

    # 3. Replay the held-out suffix as a validated, time-ordered stream of
    #    50-event micro-batches (the loader validates the stream once, so
    #    ingest does not check its batches again), answering one
    #    time-anchored query per batch while events keep arriving.
    query = np.arange(8)
    for batch in EventStreamLoader.from_graph(graph, held, batch_size=50):
        service.ingest(batch)  # O(batch) append; compaction is amortized
        z = service.encode(query, at=batch.t_lo)  # timed, staleness-tracked
    service.absorb()  # flush: train on whatever is still unabsorbed

    # 4. The service kept score the whole time.  The ingest rate counts
    #    whole ingest calls (stream-order check, append, compaction), less
    #    the automatic absorbs, which absorb_seconds times.
    stats = service.stats()
    print(f"ingested {stats['events_ingested']} events "
          f"at {stats['ingest_events_per_sec']:,.0f} events/s "
          f"({stats['compactions']} compactions)")
    print(f"absorbs: {stats['absorbs']}, staleness now {stats['staleness_events']}")
    print(f"encode latency: p50 {stats['encode_p50_ms']:.2f} ms, "
          f"p99 {stats['encode_p99_ms']:.2f} ms over {stats['encode_queries']} queries")
    assert z.shape == (query.size, model.config.dim)


if __name__ == "__main__":
    main()
