"""Core-scaling benchmark: EHNA's sync shard pool over shared memory.

Two measurements, written to ``benchmarks/results/parallel.txt``:

1. **train** — one-epoch ``EHNA.fit`` on dblp (scale 1.0) three ways: the
   default fit (one shard, inline), 2 shards inline and 2 shards on 2
   workers.  Each configuration fits once untimed first; then ``RUNS``
   rounds time one fit of each, in an order that rotates every round, and
   the report gives each configuration's median with its ratio against the
   default fit, the fit a pool has to beat.  A pooled ``fit`` starts its
   own pool, so its time includes that start-up.  The pooled loss
   trajectory and embeddings must equal the inline ones at 2 shards
   bitwise (asserted).
2. **hub walks** — single-engine ``temporal_walk_batch`` throughput with
   every walk starting at one of the 8 hubs, where the exact O(log d)
   sampler does the same per-hop work as at any other node.

The report states ``os.cpu_count()`` and the BLAS thread setting next to
the numbers: on a single-core container the pooled row measures dispatch
overhead, not speedup, and every worker inherits the BLAS thread setting —
the numbers are recorded as observed, never extrapolated.

Excluded from tier-1 (``scale`` marker).  Run:  make bench-parallel
(or  PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q -s -m scale)
"""

from __future__ import annotations

import os
import time as _time

import numpy as np
import pytest

from repro.core import EHNA
from repro.datasets import load
from repro.graph.temporal_graph import TemporalGraph
from repro.walks.engine import BatchedWalkEngine

pytestmark = [pytest.mark.scale, pytest.mark.parallel]

# Training workload: the dblp generator at its default size, one epoch of
# the default EHNA config.
TRAIN_SCALE = 1.0
RUNS = 3
#: Label -> (num_workers, parallel_shards).
CONFIGS = {
    "default": (1, 1),
    "2 shards inline": (1, 2),
    "2 shards, 2 workers": (2, 2),
}

# Walk workload: a mid-size graph with a few hub nodes.
WALK_NODES = 3_000
WALK_EVENTS = 40_000
WALK_STARTS = 4_096
NUM_WALKS = 2
WALK_LENGTH = 8


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
        "Parallel benchmark: EHNA sync data-parallel training",
        f"machine: os.cpu_count()={cores}, OPENBLAS_NUM_THREADS="
        f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} — pooled speedups are "
        f"bounded by physical cores; on {cores} core(s) the pooled row measures "
        + ("real parallelism" if cores >= 2 else "dispatch overhead only"),
        "",
    ]

    # -- 1. default vs 2 shards inline vs 2 shards pooled ---------------
    dblp = load("dblp", scale=TRAIN_SCALE, seed=0)

    def fit(label: str) -> tuple[EHNA, float]:
        workers, shards = CONFIGS[label]
        model = EHNA(seed=7, epochs=1, num_workers=workers, parallel_shards=shards)
        t0 = _time.perf_counter()
        model.fit(dblp)
        return model, _time.perf_counter() - t0

    labels = list(CONFIGS)
    for label in labels:
        fit(label)  # warm-up
    times: dict = {label: [] for label in labels}
    models: dict = {}
    for r in range(RUNS):
        for label in labels[r % len(labels) :] + labels[: r % len(labels)]:
            models[label], elapsed = fit(label)
            times[label].append(elapsed)

    # Bitwise: the pooled trajectory equals the inline one at 2 shards.
    pooled, inline = models["2 shards, 2 workers"], models["2 shards inline"]
    assert pooled.loss_history == inline.loss_history
    np.testing.assert_array_equal(pooled.embeddings(), inline.embeddings())

    medians = {label: float(np.median(times[label])) for label in labels}
    lines.append(
        f"train: one-epoch EHNA.fit at the default config, dblp scale {TRAIN_SCALE} "
        f"({dblp.num_nodes:,} nodes, {dblp.num_edges:,} events); {RUNS} alternating "
        "runs each after one warm-up fit, pool start-up included; medians, ratios "
        "against the default fit"
    )
    lines.append(
        f"{'config':>20} {'workers':>8} {'shards':>7} {'median':>9} "
        f"{'min':>8} {'max':>8} {'vs default':>11}"
    )
    for label in labels:
        workers, shards = CONFIGS[label]
        lines.append(
            f"{label:>20} {workers:>8} {shards:>7} {medians[label] * 1e3:>7.0f}ms "
            f"{min(times[label]) * 1e3:>6.0f}ms {max(times[label]) * 1e3:>6.0f}ms "
            f"{medians['default'] / medians[label]:>10.2f}x"
        )
    lines.append("pooled trajectory bitwise-equal to inline at 2 shards: yes (asserted)")
    lines.append("")

    # -- 2. hub-anchored walks on one engine ---------------------------
    graph = make_graph(WALK_NODES, WALK_EVENTS)
    anchors = np.full(WALK_STARTS, float(graph.time.max()) + 1.0)
    total_walks = WALK_STARTS * NUM_WALKS
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

    save_result("parallel", "\n".join(lines))
