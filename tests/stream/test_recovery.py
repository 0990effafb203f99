"""Crash-safe serving: WAL + checkpoint recovery under fault injection.

The property under test: **kill the service at any instant and
:meth:`OnlineService.recover` rebuilds the exact pre-crash service** — the
recovered run, resumed from where its counters say it stands, ends with a
bitwise-identical event table and graph and the same encode answers as a
run that never crashed.  The sweep in :class:`TestCrashEverywhere` proves
it at every named injection point of the ingest -> WAL -> absorb ->
checkpoint cycle.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.base
from repro.core import EHNA
from repro.datasets import load
from repro.stream import EventStreamLoader, OnlineService, WALError, WriteAheadLog
from repro.utils import faults
from repro.utils.checkpoint import CheckpointError, load_checkpoint
from repro.utils.faults import SERVICE_INJECTION_POINTS, InjectedCrash

TRAIN_EVERY = 2
CHECKPOINT_EVERY = 3
BATCH_SIZE = 12


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A fitted model (saved once) plus the held-out stream it will ingest."""
    graph = load("digg", scale=0.05, seed=0)
    train, held = graph.split_recent(0.3)
    model = EHNA(
        dim=8, epochs=1, num_walks=2, walk_length=4, batch_size=64, seed=0
    )
    model.fit(train)
    base = model.save(tmp_path_factory.mktemp("base") / "base.npz")
    loader = EventStreamLoader.from_graph(graph, held, batch_size=BATCH_SIZE)
    return base, list(loader)


def fresh_service(world, tmp_path, **kw):
    base, batches = world
    model = EHNA.load(base)
    kw.setdefault("train_every", TRAIN_EVERY)
    kw.setdefault("wal_dir", tmp_path / "wal")
    kw.setdefault("checkpoint_every", CHECKPOINT_EVERY)
    kw.setdefault("checkpoint_path", tmp_path / "ck.npz")
    return OnlineService(model, **kw), batches


@pytest.fixture(scope="module")
def reference(world):
    """Final state of the uncrashed run every recovery must reproduce."""
    base, batches = world
    model = EHNA.load(base)
    svc = OnlineService(model, train_every=TRAIN_EVERY)
    for batch in batches:
        svc.ingest(batch)
    nodes = np.arange(min(20, svc.graph.num_nodes))
    at = float(svc.graph.time[-1])
    return svc, nodes, at, svc.encode(nodes, at=at)


def assert_matches_reference(svc, reference):
    ref, nodes, at, ref_emb = reference
    np.testing.assert_array_equal(svc.graph.src, ref.graph.src)
    np.testing.assert_array_equal(svc.graph.dst, ref.graph.dst)
    np.testing.assert_array_equal(svc.graph.time, ref.graph.time)
    np.testing.assert_array_equal(svc.graph.weight, ref.graph.weight)
    assert svc.graph.num_nodes == ref.graph.num_nodes
    assert svc.staleness == ref.staleness
    np.testing.assert_allclose(
        svc.encode(nodes, at=at), ref_emb, rtol=0, atol=0
    )


#: How many hits to let pass before firing, per point: ingest-side points
#: fire on the third batch (mid-stream, after the first auto-checkpoint is
#: scheduled), absorb points on the second absorb, checkpoint points on the
#: first auto-checkpoint.  The stream is 4 batches, so every point is
#: actually reached (asserted below).
def skip_for(point: str) -> int:
    if ".absorb." in point:
        return 1
    if "checkpoint" in point:
        return 0
    return 2


@pytest.mark.faults
class TestCrashEverywhere:
    @pytest.mark.parametrize("point", SERVICE_INJECTION_POINTS)
    def test_exact_recovery_at_every_injection_point(
        self, world, reference, tmp_path, point
    ):
        svc, batches = fresh_service(world, tmp_path)
        ck = svc.checkpoint()  # recovery anchor before the faulty stretch
        name, _, torn = point.partition(":")
        kw = {"byte_limit": 37} if torn else {}
        with faults.inject(name, skip=skip_for(point), **kw) as fault:
            with pytest.raises(InjectedCrash):
                for batch in batches:
                    svc.ingest(batch)
                # The automatic checkpoint's write runs on the background
                # writer; close() drains it and raises its crash.
                svc.close()
        assert fault.fired, f"stream never reached {point}"

        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        for batch in batches[recovered.stats()["batches_ingested"] :]:
            recovered.ingest(batch)
        assert_matches_reference(recovered, reference)


@pytest.mark.faults
class TestRecoveryEdgeCases:
    def test_recovery_with_an_empty_wal(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches:
            svc.ingest(batch)
        ck = svc.checkpoint()  # rotates + prunes: the WAL is now empty
        assert list(svc.wal.records(start_seq=svc.stats()["batches_ingested"] + 1)) == []
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.stats()["batches_ingested"] == len(batches)
        np.testing.assert_array_equal(recovered.graph.time, svc.graph.time)

    def test_recovery_without_a_wal_directory(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        svc.ingest(batches[0])
        ck = svc.checkpoint()
        recovered = OnlineService.recover(ck)  # checkpoint only, no replay
        assert recovered.wal is None
        assert recovered.stats()["batches_ingested"] == 1
        np.testing.assert_array_equal(recovered.graph.time, svc.graph.time)

    def test_batch_durable_but_unapplied_is_replayed(self, world, tmp_path):
        # The canonical WAL win: crash after the record is durable but
        # before the graph sees it — the batch must NOT be lost.
        svc, batches = fresh_service(world, tmp_path)
        ck = svc.checkpoint()
        before = svc.graph.num_edges
        with faults.inject("wal.append.synced"):
            with pytest.raises(InjectedCrash):
                svc.ingest(batches[0])
        assert svc.graph.num_edges == before  # crashed pre-apply
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.stats()["batches_ingested"] == 1
        assert recovered.graph.num_edges == before + batches[0].num_events

    def test_crash_during_checkpoint_publish_keeps_the_old_one(
        self, world, tmp_path
    ):
        svc, batches = fresh_service(world, tmp_path)
        ck = svc.checkpoint()
        old_watermark = load_checkpoint(ck).watermark
        svc.ingest(batches[0])
        with faults.inject("checkpoint.write", byte_limit=512):
            with pytest.raises(InjectedCrash):
                svc.checkpoint()
        # The half-written temp never replaced the published archive.
        assert load_checkpoint(ck).watermark == old_watermark
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.stats()["batches_ingested"] == 1

    def test_replay_runs_the_train_every_schedule(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        ck = svc.checkpoint()
        for batch in batches[:TRAIN_EVERY]:
            svc.ingest(batch)
        assert svc.stats()["absorbs"] == 1  # schedule fired pre-crash
        # Crash without checkpointing again: recovery replays both batches
        # and must re-run the auto-absorb exactly where it originally fired.
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.stats()["absorbs"] == 1
        assert recovered.staleness == svc.staleness == 0

    def test_double_recovery_is_idempotent(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        ck = svc.checkpoint()
        for batch in batches[:3]:
            svc.ingest(batch)
        # No drain: the batch-3 write is published only by a later service
        # call, so both recoveries replay the WAL over the first archive.
        first = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        second = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        np.testing.assert_array_equal(first.graph.src, second.graph.src)
        np.testing.assert_array_equal(first.graph.time, second.graph.time)
        assert first.stats()["batches_ingested"] == second.stats()["batches_ingested"]
        nodes = np.arange(min(10, first.graph.num_nodes))
        at = float(first.graph.time[-1])
        np.testing.assert_array_equal(
            first.encode(nodes, at=at), second.encode(nodes, at=at)
        )

    def test_resumed_ingest_continues_a_fully_pruned_wal(self, world, tmp_path):
        # A checkpoint can prune the whole log; the recovered service must
        # still accept new batches with continuing sequence numbers instead
        # of refusing them as out-of-sequence (regression test).
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches[:-1]:
            svc.ingest(batch)
        ck = svc.checkpoint()  # prunes every logged batch
        svc.close()
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.wal.last_seq == len(batches) - 1
        recovered.ingest(batches[-1])
        assert recovered.wal.last_seq == len(batches)
        (record,) = recovered.wal.records(start_seq=len(batches))
        assert record.batch.num_events == batches[-1].num_events

    def test_plain_model_checkpoint_is_not_recoverable(self, world, tmp_path):
        base, _ = world
        with pytest.raises(CheckpointError, match="no\\s+stream watermark"):
            OnlineService.recover(base)

    def test_recover_refuses_a_pruned_gap(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        first_ck = svc.checkpoint(tmp_path / "old.npz")
        for batch in batches:
            svc.ingest(batch)
        svc.checkpoint()  # prunes everything the newer watermark covers
        empty = np.array([], dtype=np.int64)
        svc.ingest((empty, empty, np.array([]), np.array([])))
        svc.close()
        # The WAL now starts *after* the old checkpoint's watermark: the
        # records in between are gone, so exact recovery from it is
        # impossible and must be refused, not silently approximated.
        assert WriteAheadLog(tmp_path / "wal").first_seq == len(batches) + 1
        with pytest.raises(WALError, match="pruned by a newer checkpoint"):
            OnlineService.recover(first_ck, wal_dir=tmp_path / "wal")


def writer_threads() -> set:
    return {
        t for t in threading.enumerate() if t.name.startswith("checkpoint-writer")
    }


@pytest.fixture
def held_writer(monkeypatch):
    """Block the background writer's archive write until ``.set()``.

    Synchronous saves on the test's own thread pass straight through.
    """
    release = threading.Event()
    write = repro.base._stage_checkpoint

    def held(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            assert release.wait(timeout=30), "the held writer was never released"
        return write(*args, **kwargs)

    monkeypatch.setattr(repro.base, "_stage_checkpoint", held)
    return release


def assert_same_archive(path, expected_path):
    got, want = load_checkpoint(path), load_checkpoint(expected_path)
    assert got.class_name == want.class_name
    assert got.config == want.config
    assert got.meta == want.meta
    assert got.watermark == want.watermark
    assert sorted(got.arrays) == sorted(want.arrays)
    for key in want.arrays:
        np.testing.assert_array_equal(got.arrays[key], want.arrays[key])


class TestBackgroundPublish:
    """Automatic checkpoints: captured by ingest, written by one background
    writer, published on the service thread."""

    def test_published_archive_is_the_state_at_capture(
        self, world, tmp_path, held_writer
    ):
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches[:CHECKPOINT_EVERY]:
            svc.ingest(batch)  # the last one captures; the write is held
        at_capture = svc.model.save(
            tmp_path / "sync.npz", watermark=svc._watermark()
        )
        # Meanwhile the model changes in place: a parameter buffer is
        # written into, and the next absorb extends the loss history.
        svc.model.embedding.weight.data += 1.0
        svc.ingest(batches[CHECKPOINT_EVERY])  # auto-absorbs
        assert not (tmp_path / "ck.npz").exists()
        held_writer.set()
        svc.close()
        assert_same_archive(tmp_path / "ck.npz", at_capture)

    def test_ingest_and_encode_do_not_wait_for_the_publish(
        self, world, tmp_path, held_writer
    ):
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches:
            svc.ingest(batch)  # batch 3 captures; batch 4 runs meanwhile
        svc.encode([0, 1])
        assert svc.wal.first_seq == 1  # nothing pruned before the publish
        held_writer.set()
        stats = svc.stats()  # waits for the publish, then prunes
        assert stats["checkpoints"] == 1
        assert load_checkpoint(tmp_path / "ck.npz").watermark["batches"] == 3
        assert svc.wal.first_seq == 4
        svc.close()

    @pytest.mark.faults
    def test_a_failed_publish_is_raised_once_and_loses_nothing(
        self, world, reference, tmp_path
    ):
        svc, batches = fresh_service(world, tmp_path)
        ck = svc.checkpoint()
        anchor = load_checkpoint(ck).watermark
        with faults.inject("checkpoint.write", byte_limit=512) as fault:
            for batch in batches[:CHECKPOINT_EVERY]:
                svc.ingest(batch)
            with pytest.raises(InjectedCrash):
                svc.stats()  # the first call that collects the publish
        assert fault.fired
        stats = svc.stats()  # raised once, not again
        assert stats["checkpoints"] == 1  # the anchor only
        assert load_checkpoint(ck).watermark == anchor
        assert [r.seq for r in svc.wal.records()] == [1, 2, 3]
        svc.close()

        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.stats()["batches_ingested"] == CHECKPOINT_EVERY
        for batch in batches[CHECKPOINT_EVERY:]:
            recovered.ingest(batch)
        assert_matches_reference(recovered, reference)
        recovered.close()

    def test_checkpoint_per_batch_under_rapid_thread_switching(
        self, world, reference, tmp_path
    ):
        # Every ingest captures while the previous write may still run, and
        # the interpreter switches threads every microsecond: the newest
        # archive must still be the live state at its capture.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            svc, batches = fresh_service(world, tmp_path, checkpoint_every=1)
            for batch in batches:
                svc.ingest(batch)
                svc.encode([0, 1])
            stats = svc.stats()
            svc.close()
        finally:
            sys.setswitchinterval(interval)
        assert stats["checkpoints"] == len(batches)
        assert list(svc.wal.records()) == []
        ck = tmp_path / "ck.npz"
        assert load_checkpoint(ck).watermark["batches"] == len(batches)
        assert_matches_reference(OnlineService.recover(ck), reference)

    def test_close_joins_the_writer_and_is_idempotent(self, world, tmp_path):
        before = writer_threads()
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches[:CHECKPOINT_EVERY]:
            svc.ingest(batch)
        started = writer_threads() - before
        assert len(started) == 1
        svc.close()
        assert not any(thread.is_alive() for thread in started)
        svc.close()
        assert svc.stats()["checkpoints"] == 1


class TestIngestAtomicity:
    def poisoned(self, batches):
        """A batch whose *last* event is invalid (a self-loop)."""
        src, dst, time, weight = (
            batches[0].src, batches[0].dst, batches[0].time, batches[0].weight
        )
        bad_dst = dst.copy()
        bad_dst[-1] = src[-1]
        return src, bad_dst, time, weight

    def test_poisoned_batch_leaves_zero_side_effects(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        before_edges = svc.graph.num_edges
        before_stats = svc.stats()
        with pytest.raises(ValueError, match="self-loops"):
            svc.ingest(self.poisoned(batches))
        assert svc.graph.num_edges == before_edges
        assert svc.graph.pending_events == 0
        assert svc.staleness == 0
        after = svc.stats()
        assert after["batches_ingested"] == before_stats["batches_ingested"]
        assert after["events_ingested"] == before_stats["events_ingested"]
        assert svc.wal.last_seq == 0  # nothing was logged either

    def test_out_of_order_batch_is_not_logged(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        svc.ingest(batches[-1])  # jump the head forward
        logged = svc.wal.last_seq
        with pytest.raises(ValueError, match="out-of-order"):
            svc.ingest(batches[0])
        assert svc.wal.last_seq == logged

    def test_service_still_works_after_a_rejected_batch(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        with pytest.raises(ValueError, match="self-loops"):
            svc.ingest(self.poisoned(batches))
        svc.ingest(batches[0])
        assert svc.stats()["batches_ingested"] == 1
        assert svc.graph.pending_events == batches[0].num_events

    def test_fresh_service_refuses_a_stale_wal(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        svc.ingest(batches[0])
        svc.close()
        other, _ = fresh_service(world, tmp_path)  # same wal dir, batch 0
        with pytest.raises(WALError, match="out of sequence"):
            other.ingest(batches[0])


class TestCheckpointWatermark:
    def test_watermark_records_the_stream_position(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches[:2]:
            svc.ingest(batch)
        ck = svc.checkpoint()
        wm = load_checkpoint(ck).watermark
        assert wm["batches"] == 2
        assert wm["events"] == sum(b.num_events for b in batches[:2])
        assert wm["staleness"] == svc.staleness
        assert wm["head_time"] == float(svc.graph.time[-1])
        assert wm["time_scale"] is not None
        assert wm["service"]["train_every"] == TRAIN_EVERY

    def test_recover_restores_counters_and_config(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches[:2]:
            svc.ingest(batch)
        ck = svc.checkpoint()
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.train_every == TRAIN_EVERY
        assert recovered.checkpoint_every == CHECKPOINT_EVERY
        assert recovered.stats()["batches_ingested"] == 2
        assert recovered.staleness == svc.staleness
        assert recovered.graph.time_scale == svc.graph.time_scale

    def test_recovered_past_anchor_encode_matches_live(self, world, tmp_path):
        # The live service pinned its time scale before the stream grew the
        # span, so the recovered engine must be built under that same pin —
        # not under the wider span of the checkpointed graph.
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches:
            svc.ingest(batch)
        assert svc.staleness == 0
        ck = svc.checkpoint()
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.graph.time_span != svc.graph.time_scale
        nodes = np.arange(svc.graph.num_nodes)
        lo, hi = svc.graph.time_span
        for at in (lo + 0.25 * (hi - lo), 0.5 * (lo + hi)):
            np.testing.assert_array_equal(
                recovered.encode(nodes, at=at), svc.encode(nodes, at=at)
            )

    @pytest.mark.parametrize("ingested", [1, 2, 3])
    def test_recovery_is_exact_at_any_staleness(self, world, tmp_path, ingested):
        # A checkpoint taken while events wait for an absorb: the recovered
        # model must sample from the graph as of the last absorb, as the
        # live one does, not from the whole checkpointed table.
        svc, batches = fresh_service(
            world, tmp_path, train_every=None, checkpoint_every=None
        )
        for batch in batches[:ingested]:
            svc.ingest(batch)
        assert svc.staleness == sum(b.num_events for b in batches[:ingested])
        ck = svc.checkpoint()
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.staleness == svc.staleness
        assert recovered.graph.num_nodes == svc.graph.num_nodes
        np.testing.assert_array_equal(recovered.graph.time, svc.graph.time)
        nodes = np.arange(svc.model.embeddings().shape[0])
        lo, hi = svc.graph.time_span
        for at in (lo + 0.25 * (hi - lo), 0.5 * (lo + hi), hi, None):
            np.testing.assert_allclose(
                recovered.encode(nodes, at=at), svc.encode(nodes, at=at),
                rtol=0, atol=0,
            )
        # The unabsorbed tail is still unclaimed: one absorb on each side
        # trains on the same events and keeps the two equal.
        svc.absorb()
        recovered.absorb()
        assert recovered.stats()["absorbs"] == svc.stats()["absorbs"]
        np.testing.assert_array_equal(
            recovered.encode(nodes, at=hi), svc.encode(nodes, at=hi)
        )

    def test_recovery_with_unabsorbed_new_nodes(self, world, tmp_path):
        # The tail brings node ids the model has no table rows for yet: the
        # recovered model is built at the node count of its table and the
        # graph grows again as the tail is appended.
        svc, batches = fresh_service(
            world, tmp_path, train_every=None, checkpoint_every=None
        )
        svc.ingest(batches[0])
        rows = svc.model.embeddings().shape[0]
        new = svc.graph.num_nodes + 3
        svc.ingest(([0], [new], [float(svc.graph.time[-1])]))
        ck = svc.checkpoint()
        recovered = OnlineService.recover(ck, wal_dir=tmp_path / "wal")
        assert recovered.graph.num_nodes == svc.graph.num_nodes == new + 1
        assert recovered.model.embeddings().shape[0] == rows
        nodes = np.arange(rows)
        at = float(np.mean(svc.graph.time_span))
        np.testing.assert_array_equal(
            recovered.encode(nodes, at=at), svc.encode(nodes, at=at)
        )
        svc.absorb()
        recovered.absorb()
        assert recovered.model.embeddings().shape[0] == new + 1
        np.testing.assert_array_equal(
            recovered.model.embeddings(), svc.model.embeddings()
        )

    def test_recover_accepts_overrides(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        svc.ingest(batches[0])
        ck = svc.checkpoint()
        recovered = OnlineService.recover(
            ck, wal_dir=tmp_path / "wal", train_every=None, epochs=3
        )
        assert recovered.train_every is None
        assert recovered.epochs == 3

    def test_checkpoint_prunes_absorbed_wal_segments(self, world, tmp_path):
        svc, batches = fresh_service(world, tmp_path)
        for batch in batches:
            svc.ingest(batch)
        assert svc.wal.last_seq == len(batches)
        svc.checkpoint()
        # Everything logged is covered by the watermark: fully pruned.
        assert list(svc.wal.records()) == []
        assert svc.stats()["wal_segments"] == 0
