"""The paper's temporal random walk (Section IV.A, Eq. 1-2).

To analyze the formation of a target edge ``(x, y)`` at time ``t(x,y)``, a
walk starts at ``x`` (or ``y``) and moves *backwards through history*: every
traversed edge must be strictly older than ``t(x,y)``, and timestamps must be
non-increasing along the walk (the ``β = 0`` case of Eq. 2), which makes every
visited node *relevant* per Definition 2 — it can reach the target through a
time-respecting path.

Transition weights combine two factors:

- the decay kernel of Eq. 1, ``K = w_(v,w) · exp(-decay · (t(x,y) - t_(v,w)))``
  computed on the [0, 1]-normalized time scale (see DESIGN.md) so recent
  interactions dominate;
- the node2vec-style bias ``β(u, w)`` of Eq. 2 with return parameter ``p``
  and in-out parameter ``q``, steering the walk between BFS-like and
  DFS-like exploration.

Walks may revisit nodes (the paper allows duplicates to fight sparsity) and
terminate early when no historical edge remains.

Sampling is delegated to the vectorized
:class:`~repro.walks.engine.BatchedWalkEngine`: :meth:`TemporalWalker.walk`
runs a batch of one, :meth:`TemporalWalker.walks` advances all ``k`` walks of
a target in lockstep.  :meth:`TemporalWalker.walk_sequential` runs the same
exact sampler one walk and one hop at a time — it is the reference the
engine is bitwise-checked against at batch size 1, and the baseline the
walk-engine benchmark measures speedups over.
"""

from __future__ import annotations

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive
from repro.walks.base import Walk
from repro.walks.engine import (
    PROPOSALS,
    BatchedWalkEngine,
    acceptance_ratios,
    eq1_log_terms,
    log_prefix_rows,
)


def _invert(log_prefix: np.ndarray, target: float) -> int:
    """The first index whose log prefix exceeds ``target`` (the last if none)."""
    return min(int(np.searchsorted(log_prefix, target, side="right")), log_prefix.size - 1)


class TemporalWalker:
    """Samples historical-neighborhood walks for target edges.

    Parameters
    ----------
    graph:
        The temporal network.
    p:
        Return parameter — small ``p`` keeps the walk near the target
        (Section V.H observes the optimum at ``log2 p = -1`` on Yelp).
    q:
        In-out parameter — large ``q`` biases towards BFS-like, local moves.
    decay:
        Rate of the exponential time-decay kernel on the normalized time
        scale; 0 disables temporal preference (ablation EHNA-RW pairs this
        with ignoring the historical constraint).
    engine:
        Optional shared :class:`BatchedWalkEngine`; one is built when omitted.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        p: float = 1.0,
        q: float = 1.0,
        decay: float = 1.0,
        engine: BatchedWalkEngine | None = None,
    ):
        check_positive("p", p)
        check_positive("q", q)
        check_non_negative("decay", decay)
        self.graph = graph
        self.p = p
        self.q = q
        self.decay = decay
        if engine is None:
            engine = BatchedWalkEngine(graph, p=p, q=q, decay=decay)
        elif (engine.p, engine.q, engine.decay) != (float(p), float(q), float(decay)):
            # A mismatched engine would silently break the bitwise contract
            # between walk() (engine parameters) and walk_sequential()
            # (walker parameters).
            raise ValueError(
                "injected engine's (p, q, decay)="
                f"({engine.p}, {engine.q}, {engine.decay}) differ from the "
                f"walker's ({p}, {q}, {decay})"
            )
        self.engine = engine

    # ------------------------------------------------------------------
    def _row_log_prefix(self, times: np.ndarray, edge_ids: np.ndarray) -> np.ndarray:
        """Eq. 1's log prefix sums over one node's whole incidence row."""
        graph = self.graph
        terms = eq1_log_terms(graph.weight[edge_ids], graph.scale_times(times), self.decay)
        return log_prefix_rows(terms[None, :])[0]

    def _move_kind(self, prev: int, candidate: int) -> int:
        """Eq. 2's case for a move to ``candidate``: 0 return, 1 a neighbor
        of ``prev``, 2 farther out (indexes :func:`acceptance_ratios`)."""
        if candidate == prev:
            return 0
        nbrs = self.graph.neighbors(prev)
        pos = int(np.searchsorted(nbrs, candidate))
        return 1 if pos < nbrs.size and nbrs[pos] == candidate else 2

    # ------------------------------------------------------------------
    def walk(
        self,
        start: int,
        t_context: float,
        length: int,
        rng=None,
        include_context: bool = False,
    ) -> Walk:
        """Sample one walk of at most ``length`` steps for a target at ``t_context``.

        The walk can terminate early when the current node has no incident
        edge older than both the target edge and the previously traversed
        edge (no remaining relevant nodes).

        ``include_context=False`` (training) keeps the first hop *strictly*
        before ``t_context`` so the edge being analyzed never leaks into its
        own historical neighborhood.  The final per-node aggregation pass
        (Section IV.D, "with its most recent edge") passes ``True`` so the
        node's latest interaction is part of its neighborhood.

        Delegates to the batched engine with a batch of one, which consumes
        the RNG stream exactly like :meth:`walk_sequential`.
        """
        check_positive("length", length)
        rng = ensure_rng(rng)
        return self.engine.temporal(
            np.array([start]), np.array([t_context]), length, rng, include_context
        )[0]

    def walk_sequential(
        self,
        start: int,
        t_context: float,
        length: int,
        rng=None,
        include_context: bool = False,
    ) -> Walk:
        """The per-node loop (reference implementation).

        Samples the engine's scheme one walk at a time, from scratch: each
        hop recomputes the node's row of Eq. 1 log prefix sums, inverts it
        with a plain ``searchsorted``, and applies Eq. 2 by the same blocked
        rejection with the same draws.  Semantics match :meth:`walk` bit for
        bit under the same RNG state; kept as the bitwise ground truth for
        the engine's batch-size-1 contract and as the benchmark baseline.
        """
        check_positive("length", length)
        rng = ensure_rng(rng)
        graph = self.graph
        accept = acceptance_ratios(self.p, self.q)

        nodes = [int(start)]
        edge_times: list[float] = []
        prev: int | None = None
        t_last = t_context
        inclusive = include_context

        for _ in range(length):
            cur = nodes[-1]
            nbrs, times, eids = graph.incident(cur)
            cut = int(np.searchsorted(times, t_last, side="right" if inclusive else "left"))
            if cut == 0:
                break
            log_prefix = self._row_log_prefix(times, eids)[:cut]
            mass = log_prefix[-1]
            if not mass > -np.inf:
                break
            if prev is None or accept is None:
                pick = _invert(log_prefix, mass + np.log(rng.random(1))[0])
            else:
                pick = None
                while pick is None:
                    targets = mass + np.log(rng.random(PROPOSALS))
                    coins = rng.random(PROPOSALS)
                    for target, coin in zip(targets, coins):
                        k = _invert(log_prefix, target)
                        if coin < accept[self._move_kind(prev, int(nbrs[k]))]:
                            pick = k
                            break
            prev = cur
            nodes.append(int(nbrs[pick]))
            edge_times.append(float(times[pick]))
            t_last = float(times[pick])
            inclusive = True  # later hops: non-increasing times (Eq. 2, case 4)
        return Walk(nodes=nodes, edge_times=edge_times)

    def walks(
        self,
        start: int,
        t_context: float,
        num_walks: int,
        length: int,
        rng=None,
        include_context: bool = False,
    ) -> list[Walk]:
        """Sample ``num_walks`` independent walks (the paper's ``k``).

        All ``k`` walks advance together in one lockstep batch.
        """
        check_positive("num_walks", num_walks)
        rng = ensure_rng(rng)
        starts = np.full(num_walks, start, dtype=np.int64)
        anchors = np.full(num_walks, t_context, dtype=np.float64)
        return self.engine.temporal(
            starts, anchors, length, rng, include_context=include_context
        )
