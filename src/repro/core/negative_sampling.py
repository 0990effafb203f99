"""Degree-biased negative sampling (Section IV.D).

Negatives are drawn from the noise distribution ``P_n(v) ∝ d_v^0.75`` [17, 38]
— the word2vec convention of sampling "negative words" by frequency.  Draws
colliding with the positive edge's endpoints are rejected and redrawn.
"""

from __future__ import annotations

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.utils.alias import AliasTable
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative


class NegativeSampler:
    """Alias-sampled noise distribution over nodes."""

    def __init__(self, graph: TemporalGraph, power: float = 0.75):
        check_non_negative("power", power)
        self.power = power
        weights = graph.degrees().astype(np.float64) ** power
        self._table = AliasTable(weights)

    def sample(self, shape, rng=None, exclude_x=None, exclude_y=None, max_tries: int = 32) -> np.ndarray:
        """Draw negatives of the given ``shape = (B, Q)``.

        ``exclude_x``/``exclude_y`` are length-``B`` endpoint arrays; sampled
        negatives equal to either endpoint of their row are redrawn.  After ``max_tries`` rounds
        any survivors are kept — with ``Q`` small and graphs non-trivial this
        is vanishingly rare and only risks a slightly easier negative.
        """
        rng = ensure_rng(rng)
        out = self._table.sample(rng, size=shape).reshape(shape)
        if exclude_x is None and exclude_y is None:
            return out

        ex = None if exclude_x is None else np.asarray(exclude_x).reshape(-1, 1)
        ey = None if exclude_y is None else np.asarray(exclude_y).reshape(-1, 1)
        for _ in range(max_tries):
            bad = np.zeros(shape, dtype=bool)
            if ex is not None:
                bad |= out == ex
            if ey is not None:
                bad |= out == ey
            n_bad = int(bad.sum())
            if n_bad == 0:
                break
            out[bad] = self._table.sample(rng, size=n_bad)
        return out
