"""Watching a friendship network evolve through temporal walks.

A tour of the temporal substrate on the Digg-like social network: historical
neighborhoods (Definition 2), the time-decay + p/q walk bias (Eq. 1-2), and
how a node's aggregated embedding drifts as its neighborhood changes —
the phenomenon of the paper's Figures 1-2.

Run:  python examples/evolving_friendships.py
"""

import numpy as np

from repro.core import EHNA
from repro.datasets import digg_like
from repro.walks import BatchedWalkEngine


def main() -> None:
    graph = digg_like(num_users=120, num_edges=900, seed=11)
    print(f"friendship network: {graph}\n")

    hub = int(np.argmax(graph.degrees()))
    t_mid = float(np.median(graph.time))
    t_end = graph.time_span[1] + 1.0

    # --- historical neighborhoods at two points in time -----------------
    engine = BatchedWalkEngine(graph, p=0.5, q=2.0, decay=1.0)
    rng = np.random.default_rng(0)

    def neighborhood(t_anchor: float) -> set[int]:
        nodes: set[int] = set()
        for walk in engine.temporal(np.full(10, hub), np.full(10, t_anchor), 8, rng):
            nodes.update(walk.nodes[1:])
        return nodes

    early = neighborhood(t_mid)
    late = neighborhood(t_end)
    print(f"user {hub}'s historical neighborhood "
          f"(10 temporal walks, Eq. 1-2):")
    print(f"  anchored mid-timeline : {len(early)} relevant users")
    print(f"  anchored at the end   : {len(late)} relevant users")
    print(f"  overlap               : {len(early & late)} users — the "
          f"neighborhood drifts as friendships form\n")

    # --- decay controls how far back walks reach -------------------------
    for decay in (0.0, 5.0, 50.0):
        walks = BatchedWalkEngine(graph, decay=decay).temporal(
            np.full(200, hub), np.full(200, t_end), 4, rng
        )
        ages = [t_end - t for walk in walks for t in walk.edge_times]
        print(f"decay={decay:5.1f}: mean age of traversed edges "
              f"{np.mean(ages):5.2f} years")
    print("  (stronger decay -> walks stay in the recent past, Eq. 1)\n")

    # --- embeddings drift with the network --------------------------------
    # Train on the first half, then on the full graph, and compare the hub's
    # neighbors in embedding space.
    first_half = graph.snapshot(t_mid)
    early_model = EHNA(dim=32, epochs=2, seed=0).fit(first_half)
    late_model = EHNA(dim=32, epochs=2, seed=0).fit(graph)

    def top_neighbors(model: EHNA) -> list[int]:
        emb = model.embeddings()
        d = np.sum((emb - emb[hub]) ** 2, axis=1)
        return [int(v) for v in np.argsort(d)[1:9]]

    early_top = top_neighbors(early_model)
    late_top = top_neighbors(late_model)
    print(f"user {hub}'s nearest embedded neighbors, trained on:")
    print(f"  first half of the timeline: {early_top}")
    print(f"  full timeline             : {late_top}")
    print(f"  churn: {8 - len(set(early_top) & set(late_top))}/8 replaced — "
          "the embedding tracks the evolving neighborhood")


if __name__ == "__main__":
    main()
