"""Sharded EHNA training: worker-count-invariant, bitwise.

``num_workers=1`` runs every shard inline — the bitwise comparator for the
pooled runs.  The contract: for a fixed seed and fixed ``parallel_shards``,
the loss trajectory AND the final embeddings are bitwise-identical for
every worker count, in both precisions.  That one shard replays the old
whole-batch trajectory is pinned by ``tests/core/test_training_golden.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import EHNA
from repro.graph.temporal_graph import TemporalGraph
from repro.utils.rng import shard_rng

CFG = dict(
    dim=8,
    epochs=1,
    batch_size=32,
    num_walks=2,
    walk_length=4,
    parallel_shards=4,
)


@pytest.fixture
def graph():
    rng = np.random.default_rng(0)
    n, m = 40, 220
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return TemporalGraph.from_edges(
        src[keep], dst[keep], rng.uniform(0.0, 10.0, int(keep.sum()))
    )


def test_shard_rng_substreams_are_stable_and_distinct():
    a = shard_rng(123, 0).integers(0, 2**31, size=8)
    b = shard_rng(123, 0).integers(0, 2**31, size=8)
    c = shard_rng(123, 1).integers(0, 2**31, size=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # The scheme the four_shards golden pins: SeedSequence((step_seed, i)).
    d = np.random.default_rng(np.random.SeedSequence((123, 1))).integers(0, 2**31, size=8)
    np.testing.assert_array_equal(c, d)


def test_core_imports_the_pool_only_for_a_pooled_fit():
    # A fresh interpreter: this one has imported repro.parallel already.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    code = "import sys, repro.core; print('repro.parallel' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestInlineShardedPath:
    def test_inline_is_deterministic(self, graph):
        a = EHNA(seed=7, num_workers=1, **CFG).fit(graph)
        b = EHNA(seed=7, num_workers=1, **CFG).fit(graph)
        assert a.loss_history == b.loss_history
        np.testing.assert_array_equal(a.embeddings(), b.embeddings())

    def test_shard_count_is_part_of_the_scheme(self, graph):
        cfg = dict(CFG, parallel_shards=2)
        two = EHNA(seed=7, num_workers=1, **cfg).fit(graph)
        four = EHNA(seed=7, num_workers=1, **CFG).fit(graph)
        assert two.loss_history != four.loss_history

    def test_trained_model_serves_the_full_surface(self, graph):
        model = EHNA(seed=7, num_workers=1, **CFG).fit(graph)
        emb = model.embeddings()
        assert emb.shape == (graph.num_nodes, CFG["dim"])
        assert np.isfinite(emb).all()
        out = model.encode(np.arange(4), at=np.full(4, 5.0))
        assert out.shape == (4, CFG["dim"])
        assert np.isfinite(out).all()


@pytest.mark.parallel
class TestWorkerCountInvariance:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_pool_bitwise_equal_to_inline(self, graph, precision):
        inline = EHNA(seed=7, num_workers=1, precision=precision, **CFG).fit(graph)
        pooled = EHNA(seed=7, num_workers=2, precision=precision, **CFG).fit(graph)
        assert inline.loss_history == pooled.loss_history
        emb_inline = inline.embeddings()
        emb_pooled = pooled.embeddings()
        assert emb_inline.dtype == emb_pooled.dtype
        np.testing.assert_array_equal(emb_inline, emb_pooled)
