"""Multi-core data parallelism over a shared-memory graph.

``shard_pool`` is the worker pool ``EHNA.fit`` runs the shards of its
training steps on when ``EHNAConfig.num_workers >= 2``
(``repro.parallel.trainer``).  Workers attach the leader's
:class:`~repro.storage.SharedMemoryStorage` segment zero-copy via a picklable
handle; training state crosses the process boundary as (graph handle, flat
parameter snapshot, RNG seed) — the isolation seam :mod:`repro.core.params`
provides.

See docs/architecture.md ("Using every core") for the worker lifecycle.
"""

from repro.parallel.trainer import shard_pool

__all__ = ["shard_pool"]
