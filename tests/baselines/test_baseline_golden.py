"""Baseline goldens: the SGNS baselines' losses and embeddings, pinned exactly.

``tests/golden/baselines.json`` holds, per baseline, the ``loss_history``
and a SHA-256 digest of ``embeddings()`` after ``fit`` on the older 80% of a
tiny Digg graph and again after one ``partial_fit`` on the newest 20%, in
float64.  Node2Vec, DeepWalk and CTDNE draw their walk corpora from the
shared RNG before SGNS training starts, so a corpus loop that draws a
different walk, or the same walks in another order, moves these values.

As in ``tests/core/test_training_golden.py`` the cases run in a child
process with one BLAS thread.  Run this file as a script to print freshly
recorded values:
``PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/baselines/test_baseline_golden.py``.
Replace the JSON only for a change that is meant to move baseline output,
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

from repro.baselines import CTDNE, DeepWalk, Node2Vec
from repro.datasets import load

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "baselines.json"

SGNS = dict(dim=16, walk_length=10, epochs=2, seed=0, precision="float64")

#: Case name -> a factory of the configured baseline.
CASES = {
    "Node2Vec": lambda: Node2Vec(num_walks=4, p=0.5, q=2.0, **SGNS),
    "DeepWalk": lambda: DeepWalk(num_walks=4, **SGNS),
    "CTDNE": lambda: CTDNE(walks_per_node=4, **SGNS),
}


def digest(array: np.ndarray) -> str:
    """dtype, shape and SHA-256 of the bytes of ``array``."""
    array = np.ascontiguousarray(array)
    body = hashlib.sha256(array.tobytes()).hexdigest()
    return f"{array.dtype}{list(array.shape)}:{body}"


def run_case(name: str) -> dict:
    """Fit one baseline, then ``partial_fit`` it once; return its record."""
    graph = load("digg", scale=0.1, seed=0)
    base, held = graph.split_recent(0.2)
    model = CASES[name]().fit(base)
    record = {
        "fit_loss_history": list(model.loss_history),
        "fit_embeddings": digest(model.embeddings()),
    }
    model.partial_fit(
        (graph.src[held], graph.dst[held], graph.time[held], graph.weight[held])
    )
    record["loss_history"] = list(model.loss_history)
    record["embeddings"] = digest(model.embeddings())
    return record


def record_all() -> dict:
    return {name: run_case(name) for name in CASES}


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
def test_baseline_matches_golden(name, fresh, golden):
    assert fresh[name] == golden[name]


def test_every_baseline_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    print(json.dumps(record_all(), indent=2))
