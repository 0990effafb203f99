"""Random-walk engines: temporal (EHNA), node2vec, CTDNE, uniform.

All four per-node walkers are thin wrappers over the shared
:class:`~repro.walks.engine.BatchedWalkEngine`, which advances whole batches
of walks in lockstep with vectorized NumPy gathers (and is bitwise identical
to the per-node ``*_sequential`` reference loops at batch size 1).
"""

from repro.walks.base import Walk, WalkBatch
from repro.walks.ctdne import CTDNEWalker
from repro.walks.engine import BatchedWalkEngine
from repro.walks.static import Node2VecWalker, UniformWalker
from repro.walks.temporal import TemporalWalker

__all__ = [
    "Walk",
    "WalkBatch",
    "BatchedWalkEngine",
    "TemporalWalker",
    "Node2VecWalker",
    "UniformWalker",
    "CTDNEWalker",
]
