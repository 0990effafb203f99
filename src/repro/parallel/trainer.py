"""The worker pool behind ``EHNA.fit(num_workers >= 2)``.

EHNA's training step (:meth:`repro.core.model.EHNA._train_step`) splits
every batch into ``config.parallel_shards`` shards, runs each shard's
forward/backward on its own RNG substream, and reduces the shard gradients
in shard order into one :class:`~repro.core.params.FlatAdam` step.  This
module only moves those shards onto worker processes: :func:`shard_pool`
starts the pool and yields the function the step hands its shards to.

**What crosses the process boundary.**  Down: the graph's
:class:`~repro.storage.PackHandle`, the parameter segment's handle, and the
config dict — once, at pool startup; then per shard only ``(edge_ids,
step_seed, shard_idx)``.  Up: sparse embedding-gradient rows, the dense
network gradient, the BN logs and the loss.  Parameters never move: workers
read the leader's live flat vector through the shared segment, so each
``FlatAdam.step`` is visible to every worker by the next shard.

**Determinism.**  The shard layout, substreams and reduction order are all
functions of the config — not of the worker count — so a pooled fit is
bitwise-equal to the same fit with every shard inline (``num_workers=1``).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.params import FlatParams
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.pool import _WORKER, shard_rng, spawn_pool
from repro.parallel.state import SharedParams


def _init_train_worker(graph_handle, params_handle, config: dict) -> None:
    """Pool initializer: attach graph + parameter segment, build the model.

    The worker's freshly initialized parameters are immediately rebound to
    read-only views of the leader's shared vector, so its init draws are
    throwaway; its RNG is never consumed either (shard steps carry explicit
    substream generators).
    """
    from repro.core.config import EHNAConfig
    from repro.core.model import EHNA

    graph = TemporalGraph.from_handle(graph_handle)
    model = EHNA(config=EHNAConfig(**config))
    model._build_runtime(graph, rng=np.random.default_rng(0))
    flat = FlatParams(model._named_parameters())
    shared = SharedParams.attach(params_handle)
    flat.rebind(shared.readonly())
    model.aggregator.train()
    _WORKER["train_graph"] = graph
    _WORKER["train_model"] = model
    _WORKER["train_flat"] = flat
    _WORKER["train_shared"] = shared


def _pool_shard_step(edge_ids: np.ndarray, step_seed: int, shard_idx: int) -> dict:
    """Pool task: run a shard on this worker's persistent model."""
    model = _WORKER["train_model"]
    return model._shard_step(edge_ids, shard_rng(step_seed, shard_idx))


@contextmanager
def shard_pool(model, flat: FlatParams, num_workers: int):
    """Run the shards of ``model``'s training steps on ``num_workers`` workers.

    Places the graph (unless it is already shared) and the flat parameter
    vector in shared memory, starts a persistent spawn pool attached to
    both, and yields ``run(shards, step_seed)``: it takes the step's
    ``(edge_ids, shard_idx)`` pairs and returns their shard results in
    shard order.  On exit the pool stops, the parameters move back to
    private memory and every segment this call created is released.
    """
    graph = model.graph
    shared_graph = graph if graph.storage_backend == "shared" else graph.to_shared()
    shared = None
    pool = None
    try:
        shared = SharedParams.create(flat)
        flat.rebind(shared.writable())
        pool = spawn_pool(
            num_workers,
            _init_train_worker,
            (shared_graph.shared_handle, shared.handle, model._config_dict()),
        )

        def run(shards, step_seed: int) -> list:
            futures = [pool.submit(_pool_shard_step, s, step_seed, i) for s, i in shards]
            return [f.result() for f in futures]

        yield run
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
        if shared is not None:
            # Re-privatize before unlinking: tensors must not keep viewing
            # a segment that is about to disappear.
            flat.rebind(flat.data.copy())
            shared.close()
        if shared_graph is not graph:
            shared_graph.storage.close()
