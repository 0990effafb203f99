"""Core-scaling benchmark: sharded walks + sync training over shared memory.

Three measurements over one :class:`~repro.storage.SharedMemoryStorage`
graph, written to ``benchmarks/results/parallel.txt``:

1. **walk scaling** — ``ParallelWalkEngine.temporal_walk_batch`` throughput
   at 1/2/4/8 workers (1 = inline, no pool), same seed everywhere; the
   reassembled batches are asserted bitwise-identical across worker counts
   before any timing is trusted.
2. **train scaling** — sync data-parallel ``EHNA.fit`` steps/s at the same
   worker ladder, with the ``num_workers=1`` inline run as the bitwise
   comparator for the pooled loss trajectories.
3. **hub walks** — single-engine ``temporal_walk_batch`` throughput with
   every walk starting at one of the 8 hubs, where the exact O(log d)
   sampler does the same per-hop work as at any other node.

The report states ``os.cpu_count()`` next to the curve: on a single-core
container the pooled runs measure dispatch overhead, not speedup — the
numbers are recorded as observed, never extrapolated.

Excluded from tier-1 (``scale`` marker).  Run:  make bench-parallel
(or  PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q -s -m scale)
"""

from __future__ import annotations

import os
import time as _time

import numpy as np
import pytest

from repro.core import EHNA
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel import ParallelWalkEngine
from repro.walks.engine import BatchedWalkEngine

pytestmark = [pytest.mark.scale, pytest.mark.parallel]

WORKER_LADDER = (1, 2, 4, 8)

# Walk workload: a mid-size graph with a few hub nodes.
WALK_NODES = 3_000
WALK_EVENTS = 40_000
WALK_STARTS = 4_096
NUM_WALKS = 2
WALK_LENGTH = 8
SHARD_SIZE = 256

# Training workload: small enough that 8 pooled fits stay tractable on one
# core, large enough that a step does real aggregator work.
TRAIN_CFG = dict(
    dim=16,
    epochs=1,
    batch_size=32,
    num_walks=2,
    walk_length=5,
    parallel_shards=8,
)


def make_graph(num_nodes: int, num_events: int, hub_fraction: float = 0.3, seed: int = 0):
    """A temporal graph where ``hub_fraction`` of events hit 8 hub nodes."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, num_events)
    hubs = rng.random(num_events) < hub_fraction
    src[hubs] = rng.integers(0, 8, int(hubs.sum()))
    dst = rng.integers(0, num_nodes, num_events)
    keep = src != dst
    return TemporalGraph.from_edges(
        src[keep], dst[keep], rng.uniform(0.0, 100.0, int(keep.sum()))
    )


def test_core_scaling_curve(save_result):
    cores = os.cpu_count() or 1
    lines = [
        "Parallel benchmark: sharded walks + sync data-parallel training",
        f"machine: os.cpu_count()={cores} — pooled speedups are bounded by "
        f"physical cores; on {cores} core(s) the ladder below measures "
        + ("real parallelism" if cores >= 2 else "dispatch overhead only"),
        "",
    ]

    # -- 1. walk scaling (+ bitwise invariance gate) -------------------
    graph = make_graph(WALK_NODES, WALK_EVENTS)
    shared = graph.to_shared()
    rng = np.random.default_rng(1)
    starts = rng.integers(0, WALK_NODES, size=WALK_STARTS)
    anchors = np.full(WALK_STARTS, float(graph.time.max()) + 1.0)
    total_walks = WALK_STARTS * NUM_WALKS

    lines.append(
        f"walk scaling: {total_walks:,} temporal walks of length "
        f"{WALK_LENGTH} over {graph.num_edges:,} shared-memory events"
    )
    lines.append(f"{'workers':>8} {'time':>10} {'walks/s':>12} {'vs 1w':>7}")
    reference_batch = None
    base_walk_s = None
    for workers in WORKER_LADDER:
        with ParallelWalkEngine(shared, num_workers=workers, shard_size=SHARD_SIZE) as engine:
            t0 = _time.perf_counter()
            batch = engine.temporal_walk_batch(
                starts, anchors, NUM_WALKS, WALK_LENGTH, seed=11
            )
            elapsed = _time.perf_counter() - t0
        if reference_batch is None:
            reference_batch = batch
            base_walk_s = elapsed
        else:
            # The determinism contract: worker count never changes the draws.
            np.testing.assert_array_equal(batch.ids, reference_batch.ids)
            np.testing.assert_array_equal(batch.valid, reference_batch.valid)
        lines.append(
            f"{workers:>8} {elapsed * 1e3:>8.0f}ms {total_walks / elapsed:>12.0f} "
            f"{base_walk_s / elapsed:>6.2f}x"
        )
    lines.append("")

    # -- 2. sync training scaling (+ trajectory invariance gate) -------
    train_graph = make_graph(200, 2_000, seed=3)
    inline = EHNA(seed=7, num_workers=1, **TRAIN_CFG)
    t0 = _time.perf_counter()
    inline.fit(train_graph)
    inline_s = _time.perf_counter() - t0
    steps = -(-train_graph.num_edges // TRAIN_CFG["batch_size"]) * TRAIN_CFG["epochs"]

    lines.append(
        f"train scaling: sync data-parallel EHNA, {train_graph.num_edges:,} "
        f"edges, {steps} optimizer steps ({TRAIN_CFG['parallel_shards']} shards)"
    )
    lines.append(f"{'workers':>8} {'time':>10} {'steps/s':>12} {'vs inline':>10}")
    lines.append(
        f"{'inline':>8} {inline_s * 1e3:>8.0f}ms {steps / inline_s:>12.2f} "
        f"{'1.00x':>10}"
    )
    for workers in WORKER_LADDER[1:]:
        model = EHNA(seed=7, num_workers=workers, **TRAIN_CFG)
        t0 = _time.perf_counter()
        model.fit(train_graph)
        elapsed = _time.perf_counter() - t0
        # Bitwise: every pooled trajectory equals the inline comparator.
        assert model.loss_history == inline.loss_history
        np.testing.assert_array_equal(model.embeddings(), inline.embeddings())
        lines.append(
            f"{workers:>8} {elapsed * 1e3:>8.0f}ms {steps / elapsed:>12.2f} "
            f"{inline_s / elapsed:>9.2f}x"
        )
    lines.append("pooled trajectories bitwise-equal to inline: yes (asserted)")
    lines.append("")

    # -- 3. hub-anchored walks on one engine ---------------------------
    hub_starts = np.random.default_rng(5).integers(0, 8, size=WALK_STARTS)
    engine = BatchedWalkEngine(graph)
    t0 = _time.perf_counter()
    engine.temporal_walk_batch(
        hub_starts, anchors, NUM_WALKS, WALK_LENGTH, np.random.default_rng(9)
    )
    hub_s = _time.perf_counter() - t0
    lines.append(
        f"hub walks: {total_walks:,} walks starting at the 8 hubs, one engine "
        "(exact O(log d) sampler)"
    )
    lines.append(f"  {hub_s * 1e3:>8.0f}ms {total_walks / hub_s:>12.0f} walks/s")

    shared.storage.close()
    save_result("parallel", "\n".join(lines))
