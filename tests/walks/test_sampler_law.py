"""The temporal sampler draws exactly Eq. 1 × Eq. 2.

The engine samples each hop from a log prefix-sum index and applies Eq. 2's
bias by rejection.  These tests check the *law* it produces against a
brute-force evaluation of the paper's definition on small random graphs:
the joint distribution of a walk's first two hops, ``(node, time)`` pairs
or an early stop, is compared with a chi-square test.  Each case draws a
fixed sample from a seeded stream, so the verdict is deterministic.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.graph import TemporalGraph
from repro.walks import BatchedWalkEngine

WALKS = 20_000
STOP = ("stop",)


def random_graph(seed: int) -> TemporalGraph:
    """A small multigraph with tied timestamps and zero and non-unit weights.

    Built through the internal constructor: public validation rejects zero
    weights, but the sampler must still never pick such an event.
    """
    rng = np.random.default_rng(seed)
    n, m = 7, 60
    src = rng.integers(0, n, m)
    dst = (src + rng.integers(1, n, m)) % n
    time = rng.integers(0, 20, m).astype(np.float64)
    weight = rng.choice([0.0, 0.5, 1.0, 3.0], m)
    order = np.argsort(time, kind="stable")
    return TemporalGraph(n, src[order], dst[order], time[order], weight[order])


def hop_law(graph, node, t_last, inclusive, t_ctx, decay, p, q, prev):
    """Brute-force Eq. 1 × Eq. 2 over ``node``'s history: {(nbr, time): prob}."""
    nbrs, times, eids = graph.incident(node)
    keep = times <= t_last if inclusive else times < t_last
    t01 = graph.scale_times(times[keep])
    weights = graph.weight[eids[keep]] * np.exp(-decay * (graph.scale_time(t_ctx) - t01))
    if prev is not None:
        for i, nb in enumerate(nbrs[keep]):
            if nb == prev:
                weights[i] /= p
            elif not graph.has_edge(prev, nb):
                weights[i] /= q
    law: dict = {}
    total = weights.sum()
    if total > 0:
        for nb, t, w in zip(nbrs[keep], times[keep], weights):
            law[(int(nb), float(t))] = law.get((int(nb), float(t)), 0.0) + w / total
    return law


def two_hop_law(graph, start, anchor, include_context, decay, p, q) -> dict:
    """The exact law of a walk's first two hops (or its early stop)."""
    law: dict = {}
    first = hop_law(graph, start, anchor, include_context, anchor, decay, p, q, None)
    if not first:
        return {STOP: 1.0}
    for (v, t), pv in first.items():
        second = hop_law(graph, v, t, True, anchor, decay, p, q, start)
        if not second:
            law[(v, t) + STOP] = law.get((v, t) + STOP, 0.0) + pv
        for (u, t2), pu in second.items():
            law[(v, t, u, t2)] = law.get((v, t, u, t2), 0.0) + pv * pu
    return law


def sampled(engine, start, anchor, include_context, seed) -> Counter:
    walks = engine.temporal(
        np.full(WALKS, start),
        np.full(WALKS, anchor),
        2,
        np.random.default_rng(seed),
        include_context=include_context,
    )
    counts: Counter = Counter()
    for w in walks:
        key = tuple(itertools.chain.from_iterable(zip(w.nodes[1:], w.edge_times)))
        counts[key + STOP if len(w.nodes) == 2 else key or STOP] += 1
    return counts


def chi_square_pvalue(counts: Counter, law: dict) -> float:
    """Goodness of fit, pooling outcomes expected fewer than 5 times."""
    assert set(counts) <= set(law), set(counts) - set(law)  # only lawful outcomes
    keys = sorted(law, key=law.get, reverse=True)
    observed, expected = [], []
    pooled_obs = pooled_exp = 0.0
    for key in keys:
        if law[key] * WALKS >= 5:
            observed.append(counts.get(key, 0))
            expected.append(law[key] * WALKS)
        else:
            pooled_obs += counts.get(key, 0)
            pooled_exp += law[key] * WALKS
    if pooled_exp > 0:
        observed.append(pooled_obs)
        expected.append(pooled_exp)
    expected = np.asarray(expected) * (sum(observed) / sum(expected))
    if len(observed) < 2:
        return 1.0
    return float(chisquare(observed, expected).pvalue)


@pytest.mark.parametrize("graph_seed", [0, 1])
@pytest.mark.parametrize("include_context", [False, True])
@pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
@pytest.mark.parametrize("decay", [0.0, 1.0, 50.0])
def test_two_hop_law_matches_eq1_eq2(graph_seed, include_context, p, q, decay):
    graph = random_graph(graph_seed)
    start = int(np.argmax(graph.degrees()))
    _, times, _ = graph.incident(start)
    anchor = float(times[int(0.7 * times.size)])  # an event time: ties matter
    law = two_hop_law(graph, start, anchor, include_context, decay, p, q)
    assert sum(law.values()) == pytest.approx(1.0)
    engine = BatchedWalkEngine(graph, p=p, q=q, decay=decay)
    counts = sampled(engine, start, anchor, include_context, seed=graph_seed)
    assert chi_square_pvalue(counts, law) > 1e-3


def test_zero_weight_events_are_never_picked():
    graph = random_graph(0)
    assert (graph.weight == 0).any()
    carried: dict = {}  # (pair, time) -> largest weight of an event carrying the hop
    for u, v, t, w in zip(graph.src, graph.dst, graph.time, graph.weight):
        key = (min(u, v), max(u, v), t)
        carried[key] = max(carried.get(key, 0.0), w)
    engine = BatchedWalkEngine(graph, p=0.5, q=2.0, decay=1.0)
    starts = np.repeat(np.arange(graph.num_nodes), 200)
    walks = engine.temporal(starts, np.full(starts.size, 25.0), 4, np.random.default_rng(3))
    for w in walks:
        for a, b, t in zip(w.nodes, w.nodes[1:], w.edge_times):
            assert carried[(min(a, b), max(a, b), t)] > 0


def test_large_decay_does_not_underflow_the_walk():
    """decay = 1000, anchor next to the candidates, the row running far past it.

    Relative to the anchor, Eq. 1's weights are ordinary numbers here, so
    the walk must move; a prefix rebased to the row's far end alone would
    underflow to zero mass and stop it.
    """
    time = np.array([0.1230, 0.1235, 0.1240, 1.0])
    graph = TemporalGraph.from_edges(np.zeros(4, dtype=np.int64), np.array([1, 2, 1, 3]), time)
    engine = BatchedWalkEngine(graph, decay=1000.0)
    n = 4000
    walks = engine.temporal(np.zeros(n, dtype=np.int64), np.full(n, 0.125), 1, np.random.default_rng(0))
    assert all(len(w.nodes) == 2 for w in walks)
    # ... and its law is still Eq. 1, exp(-1000 · dt) on the [0, 1] scale.
    weights = np.exp(-1000.0 * (graph.scale_time(0.125) - graph.scale_times(time[:3])))
    counts = Counter(w.edge_times[0] for w in walks)
    observed = [counts[float(t)] for t in time[:3]]
    assert chisquare(observed, weights / weights.sum() * n).pvalue > 1e-3
