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
network gradient, the BN logs and the loss.  Parameters never move: the
leader's flat vector lives in a shared segment it steps through a writable
view (the one shared-write site reprolint PAR001 sanctions), workers read
the same bytes through read-only views, so each ``FlatAdam.step`` is
visible to every worker by the next shard.

**Process model.**  The pool uses the **spawn** start method: the leader
may hold threaded-BLAS state and live shared-memory mappings that are
unsafe to fork, so workers import fresh and attach to the segments by
handle.  Each worker builds its model once, in the pool initializer, and
keeps it for the pool's lifetime.

**Determinism.**  The shard layout, substreams
(:func:`repro.utils.rng.shard_rng`) and reduction order are all functions
of the config — not of the worker count — so a pooled fit is bitwise-equal
to the same fit with every shard inline (``num_workers=1``).
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

from repro.core.params import FlatParams
from repro.graph.temporal_graph import TemporalGraph
from repro.storage.shared import SharedArrayPack
from repro.utils.rng import shard_rng

#: The worker process's persistent model, set by :func:`_init_train_worker`
#: (the attached graph and parameter segment stay alive alongside it).
_WORKER: dict = {}


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
    params = SharedArrayPack.attach(params_handle)
    FlatParams(model._named_parameters()).rebind(params.array("params"))
    model.aggregator.train()
    _WORKER.update(graph=graph, model=model, params=params)


def _pool_shard_step(edge_ids: np.ndarray, step_seed: int, shard_idx: int) -> dict:
    """Pool task: run a shard on this worker's persistent model."""
    return _WORKER["model"]._shard_step(edge_ids, shard_rng(step_seed, shard_idx))


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
    params = None
    pool = None
    try:
        params = SharedArrayPack.create({"params": flat.data})
        flat.rebind(params.array("params", writable=True))
        pool = ProcessPoolExecutor(
            max_workers=int(num_workers),
            mp_context=mp.get_context("spawn"),
            initializer=_init_train_worker,
            initargs=(shared_graph.shared_handle, params.handle, model._config_dict()),
        )

        def run(shards, step_seed: int) -> list:
            futures = [pool.submit(_pool_shard_step, s, step_seed, i) for s, i in shards]
            return [f.result() for f in futures]

        yield run
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
        if params is not None:
            # Re-privatize before unlinking: tensors must not keep viewing
            # a segment that is about to disappear.
            flat.rebind(flat.data.copy())
            params.close()
        if shared_graph is not graph:
            shared_graph.storage.close()
