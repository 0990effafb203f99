"""Million-event scale benchmark for the columnar memmap event store.

End-to-end at 1M events / 100k nodes, all through the storage seam:

1. **generate+ingest** — :func:`repro.datasets.generators.generate_scaled_events`
   streams chunks through a :class:`~repro.storage.MemmapStorageWriter` into
   an on-disk store (peak memory: one chunk of columns).
2. **CSR build** — ``TemporalGraph.from_storage`` + ``incidence_csr()`` over
   the mapped columns (int32 narrowed indices at this size).
3. **walk engine** — one ``temporal_walk_batch`` lockstep launch, thousands
   of walks against the 1M-event history.
4. **train step** — fused EHNA ``_train_step`` steps on the memmap-backed
   graph (runtime build + a few optimizer steps, not a full epoch).

Peak RSS is sampled via ``resource.getrusage`` after each stage, so the
table shows where memory actually grows.  The report names the machine
(``os.cpu_count()`` and the usable cores from ``os.sched_getaffinity``), as
``bench_parallel`` does.  Results land in ``benchmarks/results/scale.txt``.

Excluded from tier-1 (``scale`` marker).  Run:  make bench-scale
(or  PYTHONPATH=src python -m pytest benchmarks/bench_scale.py -q -s -m scale)
"""

from __future__ import annotations

import os
import resource
import time as _time

import numpy as np
import pytest

from repro.core import EHNA, FlatParams
from repro.datasets.generators import generate_scaled_events
from repro.graph.temporal_graph import TemporalGraph
from repro.storage import MemmapStorage

pytestmark = pytest.mark.scale

NUM_EVENTS = 1_000_000
NUM_NODES = 100_000
CHUNK_EVENTS = 250_000
WALK_NODES = 4_096  # lockstep batch: nodes x NUM_WALKS walks at once
NUM_WALKS = 4
WALK_LENGTH = 8
TRAIN_BATCH = 256
TRAIN_STEPS = 3


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: ru_maxrss KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_million_event_pipeline(save_result, tmp_path):
    rows: list[tuple[str, str, float]] = []

    def record(stage: str, detail: str, elapsed: float) -> None:
        rows.append((stage, detail, elapsed))

    t0 = _time.perf_counter()
    store = generate_scaled_events(
        tmp_path / "scale_store",
        num_events=NUM_EVENTS,
        num_nodes=NUM_NODES,
        chunk_events=CHUNK_EVENTS,
        seed=0,
    )
    ingest_s = _time.perf_counter() - t0
    assert isinstance(store, MemmapStorage)
    assert store.num_events == NUM_EVENTS
    record("generate+ingest", f"{NUM_EVENTS / ingest_s / 1e6:.2f}M events/s", ingest_s)

    t0 = _time.perf_counter()
    graph = TemporalGraph.from_storage(store)
    indptr, *_ = graph.incidence_csr()
    csr_s = _time.perf_counter() - t0
    assert graph.storage_backend == "memmap"
    assert graph.num_edges == NUM_EVENTS
    assert int(indptr[-1]) == 2 * NUM_EVENTS  # both endpoints indexed
    record("CSR build", f"{NUM_EVENTS / csr_s / 1e6:.2f}M events/s", csr_s)

    model = EHNA(dim=32, num_walks=NUM_WALKS, walk_length=WALK_LENGTH, seed=0)
    t0 = _time.perf_counter()
    model._build_runtime(graph)
    runtime_s = _time.perf_counter() - t0
    record("model runtime build", "sampler + engine bind", runtime_s)

    rng = np.random.default_rng(1)
    starts = rng.integers(0, NUM_NODES, size=WALK_NODES)
    anchors = np.full(WALK_NODES, float(graph.time[-1]) + 1.0)
    t0 = _time.perf_counter()
    batch = model.engine.temporal_walk_batch(
        starts, anchors, NUM_WALKS, WALK_LENGTH, rng
    )
    walks_s = _time.perf_counter() - t0
    total_walks = WALK_NODES * NUM_WALKS
    assert batch.ids.shape[0] == total_walks
    record("walk engine", f"{total_walks / walks_s:.0f} walks/s", walks_s)

    flat = FlatParams(model._named_parameters())
    optimizer = model._make_optimizer(flat)
    model.aggregator.train()
    losses = []
    t0 = _time.perf_counter()
    for step in range(TRAIN_STEPS):
        edge_ids = rng.integers(0, NUM_EVENTS, size=TRAIN_BATCH)
        losses.append(model._train_step(np.sort(edge_ids), flat, optimizer))
    train_s = (_time.perf_counter() - t0) / TRAIN_STEPS
    assert all(np.isfinite(losses))
    record("train step", f"batch={TRAIN_BATCH}, per-step mean", train_s)

    peak_mb = _peak_rss_mb()
    disk_mb = store.disk_bytes / 2**20
    lines = [
        f"Scale benchmark: {NUM_EVENTS:,} events, {NUM_NODES:,} nodes "
        f"(columnar memmap store)",
        f"machine: os.cpu_count()={os.cpu_count()}, "
        f"usable cores={len(os.sched_getaffinity(0))}",
        f"{'stage':<22} {'detail':<28} {'time':>10}",
    ]
    for stage, detail, elapsed in rows:
        lines.append(f"{stage:<22} {detail:<28} {elapsed * 1e3:>8.0f}ms")
    lines.append(f"store on disk: {disk_mb:.0f} MiB   peak RSS: {peak_mb:.0f} MiB")
    lines.append(f"train losses: {', '.join(f'{x:.4f}' for x in losses)}")
    save_result("scale", "\n".join(lines))
