"""Use every core: a shared-memory graph feeding a worker pool.

Run:  python examples/parallel_training.py
"""

from repro.core import EHNA
from repro.datasets import load


def main() -> None:
    # One shared-memory copy of the event columns + CSR/alias indexes,
    # attachable from any worker process by name.  load(..., shared=True)
    # caches it like any other backend; graph.to_shared() converts an
    # in-memory graph directly.
    graph = load("digg", scale=0.2, seed=7, shared=True)
    print(f"backend={graph.storage_backend} segment={graph.shared_handle.name}")

    # EHNA has one training step: each batch splits into parallel_shards
    # shards whose gradients are averaged, in shard order, into one Adam
    # step.  num_workers only picks where a fit runs the shards: inline (1)
    # or on workers attached to the shared graph and parameters (>= 2) —
    # the two give bitwise-equal models.
    pooled = EHNA(dim=16, epochs=2, num_workers=2, parallel_shards=2, seed=0)
    pooled.fit(graph)
    inline = EHNA(dim=16, epochs=2, num_workers=1, parallel_shards=2, seed=0)
    inline.fit(graph)
    assert pooled.loss_history == inline.loss_history
    print(f"EHNA 2 shards on 2 workers: final loss {pooled.loss_history[-1]:.4f} (= inline)")


# The pool uses the spawn start method, which re-imports this module in
# each child — pool-spawning scripts always need the __main__ guard.
if __name__ == "__main__":
    main()
