"""Each event batch is validated once, where it enters the write path.

``validate_event_columns`` is the only constructor of an ``EventBatch``;
the WAL, the graph and the memmap writer take the batch and trust it.
These tests count the calls: outside input (a tuple ingest, the records a
recovery reads back from disk) is validated once, and a loader batch,
validated when its loader was built, not at all.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.storage.base as storage_base
from repro.core import EHNA
from repro.datasets import load
from repro.stream import EventStreamLoader, OnlineService


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    graph = load("digg", scale=0.05, seed=0)
    train, held = graph.split_recent(0.3)
    model = EHNA(dim=8, epochs=1, num_walks=2, walk_length=4, batch_size=64, seed=0)
    model.fit(train)
    base = model.save(tmp_path_factory.mktemp("base") / "base.npz")
    return base, EventStreamLoader.from_graph(graph, held, batch_size=12)


@pytest.fixture
def validations(monkeypatch):
    """A list that grows by one per ``validate_event_columns`` call, in
    every module that imported the function."""
    calls = []
    original = storage_base.validate_event_columns

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("validate_event_columns") is original:
            monkeypatch.setattr(module, "validate_event_columns", counted)
    return calls


def service(world, tmp_path):
    base, _ = world
    return OnlineService(
        EHNA.load(base),
        wal_dir=tmp_path / "wal",
        checkpoint_path=tmp_path / "ck.npz",
    )


def as_tuple(batch):
    return (batch.src.copy(), batch.dst.copy(), batch.time.copy(), batch.weight.copy())


def test_tuple_ingest_with_a_wal_validates_once(world, tmp_path, validations):
    svc = service(world, tmp_path)
    first = next(iter(world[1]))
    validations.clear()
    svc.ingest(as_tuple(first))
    assert len(validations) == 1
    assert svc.wal.last_seq == 1 and svc.graph.pending_events == first.num_events
    svc.close()


def test_loader_batches_are_not_validated_at_ingest(world, tmp_path, validations):
    svc = service(world, tmp_path)
    validations.clear()
    for batch in world[1]:
        svc.ingest(batch)
    assert validations == []
    assert svc.stats()["batches_ingested"] == len(world[1])
    svc.close()


def test_partial_fit_edges_validates_once(world, validations):
    model = EHNA.load(world[0])
    first = next(iter(world[1]))
    validations.clear()
    model.partial_fit(as_tuple(first))
    assert len(validations) == 1


def test_recover_validates_each_replayed_record_once(world, tmp_path, validations):
    svc = service(world, tmp_path)
    ck = svc.checkpoint()  # staleness 0: every batch is in the WAL suffix
    for batch in world[1]:
        svc.ingest(batch)
    svc.close()
    validations.clear()
    recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
    assert len(validations) == len(world[1])
    np.testing.assert_array_equal(recovered.graph.time, svc.graph.time)
    recovered.close()


def test_recover_validates_the_unabsorbed_tail_once(world, tmp_path, validations):
    # A checkpoint with unabsorbed events hands its tail back to the graph
    # as one more batch; the absorbed prefix is the model's own graph.
    svc = service(world, tmp_path)
    batches = list(world[1])
    svc.ingest(batches[0])
    ck = svc.checkpoint()
    assert svc.staleness == batches[0].num_events
    for batch in batches[1:]:
        svc.ingest(batch)
    svc.close()
    validations.clear()
    recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
    assert len(validations) == 1 + len(batches[1:])
    assert recovered.staleness == svc.staleness
    recovered.close()
