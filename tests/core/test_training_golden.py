"""Training goldens: EHNA's loss trajectories and embeddings, pinned exactly.

``tests/golden/training.json`` holds, per case, the ``loss_history`` and a
SHA-256 digest of ``embeddings()`` after ``fit`` on the older 80% of a tiny
Digg graph and again after one ``partial_fit`` on the newest 20%, in both
precisions and under every ablation switch.  The values were first recorded
before EHNA's three training paths were folded into one sharded step (the
fold reproduced them bit for bit), and re-recorded once when the temporal
walk sampler moved to the exact prefix-sum scheme, which draws a different
RNG stream from the same law.

The ``checkpoint`` entry pins what ``tests/golden/ehna_33_fields.npz`` — a
checkpoint written while ``EHNAConfig`` still had 33 fields — serves after
loading (its ``embeddings()`` and a past-anchor ``encode``), and where one
``partial_fit`` takes it.

OpenBLAS splits even small products across threads, which changes the last
bits of the results, so the cases run in a child process with one BLAS
thread.  Run this file as a script to print freshly recorded values:
``PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/core/test_training_golden.py``.
Replace the JSON only for a change that is meant to move training output,
and say why in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import EHNA
from repro.datasets import load

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN = GOLDEN_DIR / "training.json"
CHECKPOINT = GOLDEN_DIR / "ehna_33_fields.npz"
RETIRED_FIELDS = (
    "one_pass",
    "dedup_aggregations",
    "walk_cache_size",
    "walk_time_buckets",
    "parallel",
)

#: Case name -> EHNA overrides on top of the default configuration.
#: ``partial`` cases also pin one ``partial_fit`` after the fit.
CASES = {
    "float64": dict(partial=True, parallel_shards=1),
    "float32": dict(partial=True, precision="float32"),
    "no_attention": dict(partial=True, use_attention=False, epochs=1),
    "random_walks": dict(partial=True, temporal_walks=False, epochs=1),
    "single_level": dict(partial=True, two_level=False, lstm_layers=1, epochs=1),
    "four_shards": dict(partial=False, parallel_shards=4, epochs=1),
}


def digest(array: np.ndarray) -> str:
    """dtype, shape and SHA-256 of the bytes of ``array``."""
    array = np.ascontiguousarray(array)
    body = hashlib.sha256(array.tobytes()).hexdigest()
    return f"{array.dtype}{list(array.shape)}:{body}"


def run_case(name: str) -> dict:
    """Fit (and optionally ``partial_fit``) one case; return its record."""
    overrides = dict(CASES[name])
    partial = overrides.pop("partial")
    graph = load("digg", scale=0.1, seed=0)
    base, held = graph.split_recent(0.2)
    model = EHNA(seed=0, **overrides).fit(base)
    record = {
        "fit_loss_history": list(model.loss_history),
        "fit_embeddings": digest(model.embeddings()),
    }
    if partial:
        model.partial_fit(
            (graph.src[held], graph.dst[held], graph.time[held], graph.weight[held])
        )
        record["loss_history"] = list(model.loss_history)
        record["embeddings"] = digest(model.embeddings())
    return record


def run_checkpoint() -> dict:
    """What the checked-in old checkpoint serves once loaded, and where one
    ``partial_fit`` on ten repeated edges takes it."""
    model = EHNA.load(CHECKPOINT)
    graph = model.graph
    lo, hi = graph.time_span
    nodes = np.arange(graph.num_nodes)
    record = {
        "embeddings": digest(model.embeddings()),
        "encode": digest(model.encode(nodes, at=0.5 * (lo + hi))),
    }
    model.partial_fit((graph.src[:10], graph.dst[:10], hi + 1.0 + np.arange(10.0)))
    record["partial_fit_loss_history"] = list(model.loss_history)
    record["partial_fit_embeddings"] = digest(model.embeddings())
    return record


def record_all() -> dict:
    out = {name: run_case(name) for name in CASES}
    out["checkpoint"] = run_checkpoint()
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fresh() -> dict:
    """Every case, recorded now in a one-BLAS-thread child process."""
    import repro

    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, __file__],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", sorted(CASES))
def test_training_matches_golden(name, fresh, golden):
    assert fresh[name] == golden[name]


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted([*CASES, "checkpoint"])


def test_old_checkpoint_serves_bitwise_equal(fresh, golden):
    assert fresh["checkpoint"] == golden["checkpoint"]


def test_old_checkpoint_carries_the_retired_fields():
    from repro.utils.checkpoint import load_checkpoint

    config = load_checkpoint(CHECKPOINT).config
    assert all(key in config for key in RETIRED_FIELDS)
    assert (config["num_workers"], config["parallel_shards"]) == (1, 8)
    # Its single-process training ran the whole-batch step: one shard now.
    loaded = EHNA.load(CHECKPOINT).config
    assert (loaded.num_workers, loaded.parallel_shards) == (1, 1)
    # num_workers=0 was the old inline-shards comparator; 1 is that now.
    loaded = EHNA._from_config(dict(config, num_workers=0)).config
    assert (loaded.num_workers, loaded.parallel_shards) == (1, 1)


if __name__ == "__main__":
    print(json.dumps(record_all(), indent=2))
