"""Core-scaling benchmark: Hogwild SGNS + sync training over shared memory.

Three measurements, written to ``benchmarks/results/parallel.txt``:

1. **Hogwild SGNS** — ``Node2Vec.fit`` and ``CTDNE.fit`` on dblp with
   ``num_workers=1`` (the serial skip-gram loop) and ``num_workers=2``
   (lock-free workers racing on shared weight tables).  Each worker count
   fits once untimed first; the timed fit covers the whole ``fit`` — walk
   corpus, pool start-up and training.  Hogwild is not bitwise, so the gate
   is statistical: the pooled final loss must sit within 5% of the serial one.
2. **train scaling** — sync data-parallel ``EHNA.fit`` steps/s at 1/2/4/8
   workers over ``parallel_shards=8``, with the ``num_workers=1`` inline
   run at the same shards as the bitwise comparator for the pooled loss
   trajectories.  Every ratio is taken against the default fit (one
   shard, inline), the fit a pool has to beat.  Each configuration fits
   once untimed first; a pooled ``fit`` starts its own pool, so the timed
   fit still pays that start-up.
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

from repro.baselines import CTDNE, Node2Vec
from repro.core import EHNA
from repro.datasets import load
from repro.graph.temporal_graph import TemporalGraph
from repro.walks.engine import BatchedWalkEngine

pytestmark = [pytest.mark.scale, pytest.mark.parallel]

WORKER_LADDER = (1, 2, 4, 8)

# Hogwild workload: the dblp generator at its default size.
HOGWILD_SCALE = 1.0

# Walk workload: a mid-size graph with a few hub nodes.
WALK_NODES = 3_000
WALK_EVENTS = 40_000
WALK_STARTS = 4_096
NUM_WALKS = 2
WALK_LENGTH = 8

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
        "Parallel benchmark: Hogwild SGNS + sync data-parallel training",
        f"machine: os.cpu_count()={cores} — pooled speedups are bounded by "
        f"physical cores; on {cores} core(s) the ladder below measures "
        + ("real parallelism" if cores >= 2 else "dispatch overhead only"),
        "",
    ]

    # -- 1. Hogwild SGNS vs serial (+ loss parity gate) ---------------
    dblp = load("dblp", scale=HOGWILD_SCALE, seed=0)
    lines.append(
        f"hogwild SGNS: dblp scale {HOGWILD_SCALE} ({dblp.num_nodes:,} nodes, "
        f"{dblp.num_edges:,} events), whole fit() incl. walk corpus and pool "
        "start-up (timed after one warm-up fit per worker count)"
    )
    lines.append(
        f"{'method':>8} {'workers':>8} {'time':>10} {'final loss':>11} {'vs serial':>10}"
    )
    for method in (Node2Vec, CTDNE):
        serial = serial_s = None
        for workers in (1, 2):
            method(seed=0, num_workers=workers).fit(dblp)  # warm-up
            model = method(seed=0, num_workers=workers)
            t0 = _time.perf_counter()
            model.fit(dblp)
            elapsed = _time.perf_counter() - t0
            if serial is None:
                serial, serial_s = model, elapsed
            else:
                # Hogwild races by design: it must learn like serial, not bitwise.
                assert np.isfinite(model.embeddings()).all()
                assert abs(model.loss_history[-1] - serial.loss_history[-1]) <= (
                    0.05 * serial.loss_history[-1]
                )
            lines.append(
                f"{method.__name__:>8} {workers:>8} {elapsed * 1e3:>8.0f}ms "
                f"{model.loss_history[-1]:>11.4f} {serial_s / elapsed:>9.2f}x"
            )
    lines.append("hogwild final loss within 5% of serial: yes (asserted)")
    lines.append("")

    # -- 2. sync training scaling (+ trajectory invariance gate) -------
    train_graph = make_graph(200, 2_000, seed=3)

    def timed_fit(workers: int, shards: int) -> tuple[EHNA, float]:
        cfg = dict(TRAIN_CFG, num_workers=workers, parallel_shards=shards)
        EHNA(seed=7, **cfg).fit(train_graph)  # warm-up
        model = EHNA(seed=7, **cfg)
        t0 = _time.perf_counter()
        model.fit(train_graph)
        return model, _time.perf_counter() - t0

    shards = TRAIN_CFG["parallel_shards"]
    _, default_s = timed_fit(1, 1)
    steps = -(-train_graph.num_edges // TRAIN_CFG["batch_size"]) * TRAIN_CFG["epochs"]

    lines.append(
        f"train scaling: sync data-parallel EHNA, {train_graph.num_edges:,} "
        f"edges, {steps} optimizer steps (timed after one warm-up fit, pool "
        "start-up included; ratios against the default one-shard inline fit)"
    )
    lines.append(
        f"{'workers':>8} {'shards':>7} {'time':>10} {'steps/s':>12} {'vs default':>11}"
    )

    def row(workers, n_shards, elapsed):
        lines.append(
            f"{workers:>8} {n_shards:>7} {elapsed * 1e3:>8.0f}ms "
            f"{steps / elapsed:>12.2f} {default_s / elapsed:>10.2f}x"
        )

    row("inline", 1, default_s)
    inline, inline_s = timed_fit(1, shards)
    row("inline", shards, inline_s)
    for workers in WORKER_LADDER[1:]:
        model, elapsed = timed_fit(workers, shards)
        # Bitwise: every pooled trajectory equals the inline comparator.
        assert model.loss_history == inline.loss_history
        np.testing.assert_array_equal(model.embeddings(), inline.embeddings())
        row(workers, shards, elapsed)
    lines.append(
        f"pooled trajectories bitwise-equal to inline at {shards} shards: yes (asserted)"
    )
    lines.append("")

    # -- 3. hub-anchored walks on one engine ---------------------------
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
