"""Micro-benchmarks of the substrates (classic pytest-benchmark timing).

These are not paper experiments; they quantify building blocks that no
end-to-end workload of ``benchmarks/e2e`` times on its own: alias sampling,
SGNS steps and the historical-neighborhood query.  Walk sampling, the
aggregator's forward and backward pass and whole EHNA epochs are timed by
the ``walks-hub-1m`` and ``fit-dblp`` workloads there.
"""

import numpy as np

from repro.baselines import SkipGramNS
from repro.datasets import load
from repro.utils import AliasTable


def test_alias_table_sampling(benchmark):
    rng = np.random.default_rng(0)
    table = AliasTable(rng.random(10_000) + 0.01)

    def run():
        table.sample(rng, size=10_000)

    benchmark(run)


def test_sgns_step(benchmark):
    rng = np.random.default_rng(0)
    model = SkipGramNS(2_000, dim=64, seed=0)
    pairs = rng.integers(2_000, size=(4_096, 2)).astype(np.int64)

    def run():
        model.train_pairs(pairs, batch_size=64)

    benchmark(run)


def test_historical_neighborhood_query(benchmark):
    graph = load("digg", scale=0.5, seed=0)
    cut = float(np.median(graph.time))

    def run():
        for v in range(graph.num_nodes):
            graph.events_before(v, cut)

    benchmark(run)
