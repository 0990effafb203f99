"""The alias tables and the negative sampler draw exactly their laws.

Section IV.D draws negatives from ``P_n(v) ∝ d_v^0.75`` and redraws any
that hit an endpoint of the positive edge, so each row's law is ``d^0.75``
renormalized over the nodes that are not its endpoints.  Both alias
samplers behind it (``AliasTable`` for one distribution,
``PackedAliasTables`` for one per CSR segment) must reproduce their
weights, and the skip-gram baselines draw their noise nodes from ``d^0.75``
too.  Each case compares a fixed seeded sample with the exact law by a
chi-square test, in the style of ``tests/walks/test_sampler_law.py``, so
the verdict is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.baselines import CTDNE, Node2Vec
from repro.core.negative_sampling import NegativeSampler
from repro.graph import TemporalGraph
from repro.utils.alias import AliasTable, PackedAliasTables

DRAWS = 20_000


def fits(draws: np.ndarray, law: np.ndarray) -> bool:
    """Chi-square goodness of fit at p > 1e-3; outcomes the law gives no
    mass must never be drawn."""
    counts = np.bincount(draws, minlength=law.size)
    assert counts[law == 0].sum() == 0, np.flatnonzero((law == 0) & (counts > 0))
    keep = law > 0
    if keep.sum() < 2:
        return True  # one lawful outcome: the assertion above is the test
    expected = law[keep] / law[keep].sum() * counts.sum()
    return chisquare(counts[keep], expected).pvalue > 1e-3


def skewed_graph(seed: int) -> TemporalGraph:
    """Eight nodes with degrees from 1 to ~40 (node 0 the hub)."""
    rng = np.random.default_rng(seed)
    src = np.minimum(rng.geometric(0.35, 120) - 1, 7)
    dst = (src + rng.integers(1, 8, 120)) % 8
    return TemporalGraph.from_edges(src, dst, np.arange(120, dtype=np.float64))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("endpoints", [(), (0,), (0, 1)])
def test_negatives_follow_degree_power_law_without_endpoints(seed, endpoints):
    graph = skewed_graph(seed)
    law = graph.degrees().astype(np.float64) ** 0.75
    law[list(endpoints)] = 0.0
    rows, q = DRAWS // 4, 4
    exclude = [np.full(rows, v) for v in endpoints] + [None, None]
    out = NegativeSampler(graph).sample(
        (rows, q), np.random.default_rng(seed), exclude_x=exclude[0], exclude_y=exclude[1]
    )
    assert out.shape == (rows, q)
    assert fits(out.ravel(), law)


@pytest.mark.parametrize("method", [Node2Vec, CTDNE], ids=lambda c: c.__name__)
def test_sgns_noise_follows_degree_power_law(method):
    graph = skewed_graph(0)
    sgns = method(seed=0)._new_model(graph)
    draws = sgns._noise.sample(np.random.default_rng(5), size=DRAWS)
    assert fits(draws, graph.degrees().astype(np.float64) ** 0.75)


@pytest.mark.parametrize(
    "weights",
    [
        [1.0, 2.0, 7.0],
        [0.0, 5.0, 0.5, 0.5, 3.0, 0.0, 1.0],
        np.random.default_rng(0).exponential(size=40),
    ],
)
def test_alias_table_reproduces_its_weights(weights):
    weights = np.asarray(weights, dtype=np.float64)
    draws = AliasTable(weights).sample(np.random.default_rng(7), size=DRAWS)
    assert fits(draws, weights)


def test_packed_alias_tables_reproduce_every_segment():
    rng = np.random.default_rng(3)
    segments = [
        np.array([1.0, 2.0, 7.0]),
        np.array([4.0]),
        np.array([0.0, 5.0, 0.5, 0.5, 3.0, 0.0, 1.0]),
        rng.exponential(size=25),
    ]
    indptr = np.concatenate([[0], np.cumsum([s.size for s in segments])])
    tables = PackedAliasTables(np.concatenate(segments), indptr)
    rows = np.repeat(np.arange(len(segments)), DRAWS // 2)
    rng.shuffle(rows)
    local = tables.sample(rows, np.random.default_rng(4))
    for row, weights in enumerate(segments):
        assert fits(local[rows == row], weights), row
