"""Multi-core data parallelism over a shared-memory graph.

Workers attach the leader's :class:`~repro.storage.SharedMemoryStorage`
segment zero-copy via a picklable handle; training state crosses the
process boundary as (graph handle, flat parameter snapshot, RNG seed) — the
isolation seam :mod:`repro.core.params` provides.  Two front doors:

- ``shard_pool`` — the worker pool ``EHNA.fit`` runs the shards of its
  training steps on when ``EHNAConfig.num_workers >= 2``
  (``repro.parallel.trainer``).
- ``hogwild_train_corpus`` — lock-free shared-table training for the
  skip-gram baselines, wired behind ``train_corpus(num_workers=...)``
  (``repro.parallel.hogwild``).

See docs/architecture.md ("Using every core") for the worker lifecycle and
the sync-vs-hogwild tradeoffs.
"""

from repro.parallel.hogwild import hogwild_train_corpus
from repro.parallel.pool import shard_rng, shard_seed_seq, spawn_pool
from repro.parallel.state import SharedParams
from repro.parallel.trainer import shard_pool

__all__ = [
    "SharedParams",
    "hogwild_train_corpus",
    "shard_pool",
    "shard_rng",
    "shard_seed_seq",
    "spawn_pool",
]
