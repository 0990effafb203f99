"""Random-number-generator plumbing.

Every stochastic component in this package accepts either a seed or a
:class:`numpy.random.Generator`.  Funnelling construction through
:func:`ensure_rng` keeps experiments reproducible end to end: a single integer
seed at the harness level determines walks, negative samples, initial weights
and data splits.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(seed=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an integer, or an existing
    generator (returned unchanged, so callers can share a stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed).__name__}"
    )


def shard_rng(step_seed: int, shard_idx: int) -> np.random.Generator:
    """The generator of shard ``shard_idx`` of a sharded training step.

    Seeded from ``SeedSequence((step_seed, shard_idx))``, where ``step_seed``
    is one draw from the model stream per step: shards never share a stream
    and never consume the model stream beyond that draw, so a shard draws
    the same values wherever it runs.
    """
    return np.random.default_rng(np.random.SeedSequence((int(step_seed), int(shard_idx))))


def spawn_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` independent child generators.

    Children are statistically independent of each other and of the parent's
    future output, which lets parallel components (e.g. per-walk samplers)
    stay reproducible regardless of execution order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]
