"""Walk-engine benchmark: batched lockstep vs. the seed per-node loops.

Times walk generation on a Table-1 synthetic graph (the DBLP stand-in) two
ways and saves the comparison table under ``benchmarks/results/``:

- ``sequential``: the pre-engine per-node loops (``walk_sequential``), one
  Python-level step at a time — the seed implementation.
- ``batched``: the same walks advanced in one ``BatchedWalkEngine`` lockstep
  batch.  Required to be at least 5x faster on the temporal family (the
  acceptance bar of the engine PR; in practice ~10x at this size and growing
  with batch width).

Also asserts the engine's batch-size-1 bitwise-identity contract so the
speedup is provably not a change in sampling semantics.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_walk_engine.py -q -s
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.datasets import load
from repro.walks import TemporalWalker, UniformWalker

NUM_WALKS = 4  # the paper's k, laptop scale
LENGTH = 8
REPEATS = 3

MIN_TEMPORAL_SPEEDUP = 5.0


def _best(fn) -> float:
    return min(timeit.repeat(fn, number=1, repeat=REPEATS))


def _table(rows: list[tuple[str, float, float, float]]) -> str:
    lines = [
        "Walk-engine throughput (Table-1 DBLP stand-in)",
        f"{'family':<10} {'sequential':>12} {'batched':>12} {'speedup':>9}",
    ]
    for name, seq, bat, speedup in rows:
        lines.append(
            f"{name:<10} {seq * 1e3:>10.1f}ms {bat * 1e3:>10.1f}ms {speedup:>8.1f}x"
        )
    return "\n".join(lines)


def test_walk_engine_speedup(save_result):
    graph = load("dblp", scale=1.0, seed=0)
    anchor = graph.time_span[1] + 1.0
    starts = np.repeat(np.arange(graph.num_nodes), NUM_WALKS)
    anchors = np.full(starts.size, anchor)

    temporal = TemporalWalker(graph, p=0.5, q=2.0)
    uniform = UniformWalker(graph, engine=temporal.engine)

    # Correctness first: at batch size 1 the engine must reproduce the seed
    # walker bit for bit, so the timings below compare identical samplers.
    for start in range(0, graph.num_nodes, 7):
        r1 = np.random.default_rng(start)
        r2 = np.random.default_rng(start)
        a = temporal.walk_sequential(start, anchor, LENGTH, r1)
        b = temporal.walk(start, anchor, LENGTH, r2)
        assert a.nodes == b.nodes and a.edge_times == b.edge_times
        assert r1.random() == r2.random()

    t_seq = _best(
        lambda: [
            temporal.walk_sequential(int(v), anchor, LENGTH, np.random.default_rng(0))
            for v in starts
        ]
    )
    t_bat = _best(
        lambda: temporal.engine.temporal(starts, anchors, LENGTH, np.random.default_rng(0))
    )
    u_seq = _best(
        lambda: [
            uniform.walk_sequential(int(v), LENGTH, np.random.default_rng(0))
            for v in starts
        ]
    )
    u_bat = _best(lambda: uniform.engine.uniform(starts, LENGTH, np.random.default_rng(0)))

    rows = [
        ("temporal", t_seq, t_bat, t_seq / t_bat),
        ("uniform", u_seq, u_bat, u_seq / u_bat),
    ]
    save_result(
        "walk_engine",
        _table(rows)
        + f"\n({starts.size} walks of length {LENGTH}, {graph.num_nodes} nodes, "
        f"{graph.num_edges} events; best of {REPEATS})",
    )
    assert t_seq / t_bat >= MIN_TEMPORAL_SPEEDUP, (
        f"batched temporal walks only {t_seq / t_bat:.1f}x faster than the "
        f"seed per-node loop (need >= {MIN_TEMPORAL_SPEEDUP}x)"
    )

