"""Random walks: temporal (EHNA), node2vec, CTDNE, uniform.

One engine samples every walk family:
:class:`~repro.walks.engine.BatchedWalkEngine` advances whole batches of
walks in lockstep with vectorized NumPy gathers.  EHNA, its EHNA-RW
ablation and the Node2Vec, DeepWalk and CTDNE baselines all call it
directly.
"""

from repro.walks.base import Walk, WalkBatch
from repro.walks.engine import BatchedWalkEngine

__all__ = [
    "Walk",
    "WalkBatch",
    "BatchedWalkEngine",
]
