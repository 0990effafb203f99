"""Train-step benchmark: the fused aggregation kernels vs the reference ones.

Times full ``EHNA.fit()`` runs on a Table-1 synthetic graph (the DBLP
stand-in family, laptop scale) and reports per-batch step times for

- ``baseline``: the reference kernels — ``Walk``-object batching through
  ``batch_walks`` and the stepwise per-timestep LSTM graph
  (``fused_kernels=False``);
- ``fused``: the default pipeline — an array-native :class:`WalkBatch` and
  the single-node BPTT LSTM kernel.

Both run the one training step (positives and every negative group in one
grouped aggregation), and the kernel swap is numerically equivalent, so the
two loss trajectories must agree to float noise.  The fused kernels are
required to be at least 1.5x faster per batch.

The table also carries, as history, the numbers recorded before the
one-pass step became the only step: the three-call pre-fusion step and the
``(node, anchor)`` dedup option, neither of which exists any more.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_train_step.py -q -s
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.core import EHNA
from repro.datasets import temporal_sbm

# Laptop-scale training config (the test-suite regime, where per-batch
# Python overhead — not BLAS throughput — dominates the stepwise path).
CONFIG = dict(
    dim=16, epochs=1, batch_size=16, num_walks=4, walk_length=6, num_negatives=3
)
REPEATS = 3

MIN_SPEEDUP = 1.5  # measured ~2.1x on a shared 2-core x86 container

#: The table as recorded with this config before the one-pass step became
#: the only step.  The code it timed is gone, so it is kept as history.
HISTORICAL = """\
Historical, no longer runnable:
pipeline            fit()   per batch   speedup
baseline            2.12s      84.9ms     1.00x   pre-fusion: three aggregations per batch, reference kernels
fused               0.64s      25.7ms     3.31x
fused+dedup         0.62s      25.0ms     3.40x   repeated (node, anchor) rows aggregated once"""


def _graph():
    return temporal_sbm(num_nodes=60, num_edges=400, seed=3)


def _best_fit_time(graph, **overrides) -> float:
    def run():
        EHNA(seed=0, **CONFIG, **overrides).fit(graph)

    return min(timeit.repeat(run, number=1, repeat=REPEATS))


def _table(rows, num_batches) -> str:
    lines = [
        "Train-step throughput (temporal_sbm 60 nodes / 400 events, "
        f"{CONFIG['epochs']} epoch x {num_batches} batches)",
        f"{'pipeline':<14} {'fit()':>10} {'per batch':>11} {'speedup':>9}",
    ]
    base = rows[0][1]
    for name, total in rows:
        lines.append(
            f"{name:<14} {total:>9.2f}s {total / num_batches * 1e3:>9.1f}ms "
            f"{base / total:>8.2f}x"
        )
    return "\n".join([*lines, "", HISTORICAL])


def test_train_step_speedup(save_result):
    graph = _graph()
    num_batches = -(-graph.num_edges // CONFIG["batch_size"]) * CONFIG["epochs"]

    t_base = _best_fit_time(graph, fused_kernels=False)
    t_fused = _best_fit_time(graph)

    rows = [("baseline", t_base), ("fused", t_fused)]
    save_result("bench_train_step", _table(rows, num_batches))

    assert t_base / t_fused >= MIN_SPEEDUP, (
        f"fused pipeline is only {t_base / t_fused:.2f}x faster "
        f"(required >= {MIN_SPEEDUP}x)"
    )


def test_fused_loss_curve_tracks_baseline(save_result):
    """The kernel swap is numerically equivalent: same seed, same losses to
    float noise."""
    graph = _graph()
    cfg = {**CONFIG, "epochs": 3}
    fused = EHNA(seed=0, **cfg).fit(graph)
    baseline = EHNA(seed=0, fused_kernels=False, **cfg).fit(graph)
    lf, lb = np.array(fused.loss_history), np.array(baseline.loss_history)
    rel = np.abs(lf - lb) / np.abs(lb)
    lines = ["Fused vs baseline loss trajectory (per epoch)",
             f"{'epoch':<7} {'fused':>10} {'baseline':>10} {'rel diff':>9}"]
    for e, (a, b, r) in enumerate(zip(lf, lb, rel)):
        lines.append(f"{e:<7} {a:>10.4f} {b:>10.4f} {r:>9.1e}")
    save_result("bench_train_step_loss", "\n".join(lines))
    np.testing.assert_allclose(lf, lb, rtol=1e-6)
