"""Online serving: interleave ingestion, incremental training and queries.

:class:`OnlineService` wraps a *fitted* embedding method and drives the full
streaming loop over the model's own graph:

- :meth:`ingest` appends a micro-batch of events through the graph's
  amortized :meth:`~repro.graph.temporal_graph.TemporalGraph.extend_in_place`
  path (O(batch) per call; the stable-merge re-sort is deferred to one
  compaction per ``compact_every`` events);
- :meth:`absorb` runs ``model.partial_fit()`` over every event ingested
  since the last absorb (the buffered-graph path — ``take_fresh`` claims
  each event exactly once), optionally automatic every ``train_every``
  ingested batches;
- :meth:`encode` answers time-anchored queries, timing each call into a
  :class:`~repro.stream.metrics.LatencyTracker`.

**Staleness model.** Queries are served by the model's walk engine, whose
sampling structures snapshot the graph at the last ``fit``/``absorb`` —
ingested-but-unabsorbed events are visible to graph readers but not to
queries.  :attr:`staleness` counts exactly those events, and ``absorb()``
resets it to zero.  The service **pins the graph's time scale** at
construction (unless the graph already carries a pin): the scaled-time
encoding of historical events then stays fixed as the stream head advances,
so answers for past anchors don't drift between absorbs merely because the
timeline grew.  Events that introduce *new* nodes only become queryable
after the next absorb (which grows the embedding table).

The service enforces stream order at the ingest boundary: a batch reaching
back before the newest ingested event is rejected, matching the loader's
monotonicity contract end to end.

**Validated once.** A batch travels as one validated
:class:`~repro.storage.EventBatch`: ``ingest`` validates outside input (a
tuple or row matrix) in :func:`repro.base.parse_edge_batch`, a loader batch
passes through, and the WAL and the graph do not check it again.

**Durability.** With ``wal_dir=`` every accepted batch is logged to a
:class:`~repro.stream.wal.WriteAheadLog` *before* it touches the graph, and
with ``checkpoint_every=`` the service periodically snapshots the model
atomically, embedding a **stream watermark** — the recovery cursor — in the
archive header and pruning WAL segments the snapshot made redundant.  The
WAL already makes each batch durable, so an automatic checkpoint keeps
``ingest`` waiting only for its capture:

- *capture*, on the calling thread: ``EmbeddingMethod._snapshot`` compacts
  the graph and copies every array and header field a later ingest or
  absorb could change in place; the watermark is built and the WAL
  rotated;
- *write*, on the service's one background ``checkpoint-writer`` thread:
  checksum and serialize the archive to its temp file;
- *publish*, back on the service thread: ``EmbeddingMethod.save`` fsyncs
  the written archive and renames it into place, then the WAL is pruned
  and the checkpoint counted.

At most one checkpoint is in flight.  ``ingest`` and ``encode`` publish a
write that already finished; the next capture, :meth:`checkpoint`,
:meth:`stats` and :meth:`close` wait for it.  A failed write is raised by
the call that collects it (``ingest`` raises it before touching its
batch), with nothing pruned; a crash before the publish recovers from the
previous checkpoint plus the unpruned WAL.  An explicit :meth:`checkpoint`
runs all three steps on the calling thread.

:meth:`recover` inverts the pair: reload the newest checkpoint (its
unabsorbed tail re-ingested), restore every service counter from the
watermark, and replay the WAL suffix past it through the ordinary
ingest/absorb loop.
Because the checkpoint also carries the training RNG state, the recovered
service is *exactly* the pre-crash one: bitwise-equal event table and
graph, and encode answers identical (within the precision policy) to a run
that never crashed, at any staleness.  Ingest itself is atomic — the whole
batch is validated before the WAL or the graph see any of it, so a
poisoned batch leaves zero side effects.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.base import EmbeddingMethod, parse_edge_batch
from repro.stream.metrics import LatencyTracker, ThroughputTracker
from repro.stream.wal import DEFAULT_SEGMENT_BYTES, WALError, WriteAheadLog
from repro.utils import faults
from repro.utils.checkpoint import CheckpointError, load_checkpoint
from repro.utils.validation import check_positive


class OnlineService:
    """Serve time-anchored embeddings while the event stream keeps arriving.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.base.EmbeddingMethod` (``model.graph`` set).
        The service grows this model's graph in place.
    compact_every:
        Buffered-event threshold for graph compaction (passed through to
        ``extend_in_place``); lower = fresher CSR, higher = less re-sort
        work per event.
    train_every:
        When set, ``absorb()`` runs automatically after every
        ``train_every`` ingested batches; ``None`` leaves absorption fully
        manual.
    epochs:
        Incremental epochs per absorb (``partial_fit``'s ``epochs``).
    wal_dir:
        Directory for the write-ahead log.  When set, every batch is
        durably logged before it is applied; ``None`` (default) disables
        logging.  Pointing a fresh service at a non-empty WAL directory is
        rejected on the first ingest — recover from it instead.
    wal_segment_bytes / wal_sync:
        Segment-rotation threshold and fsync policy, passed through to
        :class:`~repro.stream.wal.WriteAheadLog`.
    checkpoint_every:
        When set, a checkpoint is captured after every ``checkpoint_every``
        ingested batches and written in the background (requires
        ``checkpoint_path``; see the durability notes in the module
        docstring).
    checkpoint_path:
        Where :meth:`checkpoint` publishes its atomic snapshot (a ``.npz``
        suffix is appended when missing).
    """

    def __init__(
        self,
        model: EmbeddingMethod,
        *,
        compact_every: int = 4096,
        train_every: int | None = None,
        epochs: int = 1,
        wal_dir=None,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        wal_sync: str = "batch",
        checkpoint_every: int | None = None,
        checkpoint_path=None,
    ):
        if model.graph is None:
            raise RuntimeError(
                "OnlineService wraps a fitted model; call fit() first"
            )
        check_positive("compact_every", compact_every)
        check_positive("epochs", epochs)
        if train_every is not None:
            check_positive("train_every", train_every)
        if checkpoint_every is not None:
            check_positive("checkpoint_every", checkpoint_every)
            if checkpoint_path is None:
                raise ValueError(
                    "checkpoint_every requires checkpoint_path: automatic "
                    "snapshots need somewhere to publish"
                )
        self.model = model
        self.compact_every = int(compact_every)
        self.train_every = None if train_every is None else int(train_every)
        self.epochs = int(epochs)
        self.checkpoint_every = (
            None if checkpoint_every is None else int(checkpoint_every)
        )
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.wal_segment_bytes = int(wal_segment_bytes)
        self.wal_sync = str(wal_sync)
        self._wal = (
            None
            if wal_dir is None
            else WriteAheadLog(
                wal_dir,
                segment_max_bytes=self.wal_segment_bytes,
                sync=self.wal_sync,
            )
        )
        self._replaying = False
        # The background checkpoint writer (started by the first automatic
        # checkpoint, joined by close) and the write in flight on it:
        # ``(future, capture)`` (see _capture), or None.
        self._writer: ThreadPoolExecutor | None = None
        self._in_flight = None
        if model.graph.time_scale is None:
            model.graph.pin_time_scale()
        # The stream head: the graph's edge table is time-sorted, so the
        # newest event is the last row (empty graph = no constraint yet).
        times = model.graph.time
        self._head = float(times[-1]) if times.size else float("-inf")
        self._ingested = 0
        self._batches = 0
        self._absorbs = 0
        self._since_absorb = 0
        self._batches_since_absorb = 0
        self._checkpoints = 0
        self.ingest_throughput = ThroughputTracker()
        self.encode_latency = LatencyTracker()
        self.absorb_seconds = 0.0

    @property
    def graph(self):
        """The model's (growing) temporal graph."""
        return self.model.graph

    @property
    def staleness(self) -> int:
        """Events ingested since the last absorb — invisible to queries."""
        return self._since_absorb

    @property
    def wal(self) -> WriteAheadLog | None:
        """The write-ahead log, or None when durability is off."""
        return self._wal

    # ------------------------------------------------------------------
    # the streaming loop
    # ------------------------------------------------------------------
    def ingest(self, events) -> "OnlineService":
        """Append one micro-batch of events to the model's graph.

        ``events`` is an :class:`~repro.storage.EventBatch` (validated
        already) or any raw form :func:`repro.base.parse_edge_batch`
        validates.  Empty batches are a no-op (but still count toward the
        ``train_every`` schedule, so a quiet time window can trigger a
        scheduled absorb).

        Ingest is **atomic**: the entire batch is validated — column
        shapes, event invariants, stream order — before the WAL or the
        graph see any of it, so a rejected batch leaves the service bitwise
        unchanged.  With a WAL configured the validated batch is durably
        logged *before* it is applied; a crash between the two replays the
        batch on recovery instead of losing it.  A background checkpoint
        write that failed since the last call is raised before the batch
        is looked at.
        """
        t0 = _time.perf_counter()
        absorb_s = self.absorb_seconds
        checkpoint_due = (
            self.checkpoint_every is not None
            and not self._replaying
            and (self._batches + 1) % self.checkpoint_every == 0
        )
        # The ingest that will capture waits for the write in flight here,
        # so a failed write is raised before this batch is touched.
        self._collect(wait=checkpoint_due)
        batch = parse_edge_batch(events)
        time = batch.time
        if time.size:
            t_min = float(time.min())
            if t_min < self._head:
                raise ValueError(
                    f"out-of-order ingest: batch contains time {t_min} "
                    f"earlier than the stream head {self._head}; the online "
                    "service only accepts events at or after the newest "
                    "ingested event"
                )
        faults.crash_point("service.ingest.validated")
        if self._wal is not None and not self._replaying:
            self._wal.append(batch, seq=self._batches + 1)
        if time.size:
            self.graph.extend_in_place(batch, compact_every=self.compact_every)
            faults.crash_point("service.ingest.applied")
            self._head = float(time.max())
            self._ingested += time.size
            self._since_absorb += time.size
        self._batches += 1
        self._batches_since_absorb += 1
        if (
            self.train_every is not None
            and self._batches_since_absorb >= self.train_every
        ):
            self.absorb()
        if checkpoint_due:
            if self._writer is None:
                self._writer = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="checkpoint-writer"
                )
            capture = self._capture(None)
            snapshot, target, watermark, _ = capture
            self._in_flight = (
                self._writer.submit(snapshot._write, target, watermark),
                capture,
            )
        # The automatic absorb this call ran is timed in absorb_seconds.
        self.ingest_throughput.add(
            time.size,
            _time.perf_counter() - t0 - (self.absorb_seconds - absorb_s),
        )
        return self

    def absorb(self, epochs: int | None = None) -> "OnlineService":
        """Train the model on every event ingested since the last absorb.

        Runs the buffered-graph ``partial_fit`` path: the graph compacts,
        ``take_fresh()`` hands over the unabsorbed events, and the model
        trains ``epochs`` incremental epochs on exactly those.  A zero-event
        absorb is a no-op (nothing trains, no state changes).
        """
        faults.crash_point("service.absorb.begin")
        t0 = _time.perf_counter()
        self.model.partial_fit(epochs=self.epochs if epochs is None else epochs)
        faults.crash_point("service.absorb.trained")
        self.absorb_seconds += _time.perf_counter() - t0
        if self._since_absorb:
            self._absorbs += 1
        self._since_absorb = 0
        self._batches_since_absorb = 0
        return self

    def encode(self, nodes, at=None) -> np.ndarray:
        """Answer a (timed) time-anchored embedding query.

        Delegates to ``model.encode(nodes, at=at)`` and records the
        wall-clock latency.  Answers reflect the model state as of the last
        absorb (see the staleness model in the module docstring).  Like
        :meth:`ingest` it first publishes a finished background write.
        """
        self._collect(wait=False)
        t0 = _time.perf_counter()
        out = self.model.encode(nodes, at=at)
        self.encode_latency.record(_time.perf_counter() - t0)
        return out

    # ------------------------------------------------------------------
    # durability: checkpoint and recover
    # ------------------------------------------------------------------
    def _watermark(self) -> dict:
        """The recovery cursor embedded in a checkpoint header.

        Records everything :meth:`recover` needs that the model archive
        itself does not carry: the stream position (batch/event counts, the
        head time), the absorb bookkeeping (staleness, schedule phase), the
        pinned time scale (``model.save`` persists the graph's *events*,
        not its scaled-time pin), and the service configuration so recovery
        rebuilds an identically-behaving loop.
        """
        scale = self.graph.time_scale
        return {
            "batches": self._batches,
            "events": self._ingested,
            "absorbed_events": self._ingested - self._since_absorb,
            "staleness": self._since_absorb,
            "batches_since_absorb": self._batches_since_absorb,
            "absorbs": self._absorbs,
            "head_time": self._head,
            "time_scale": None if scale is None else [float(s) for s in scale],
            "service": {
                "compact_every": self.compact_every,
                "train_every": self.train_every,
                "epochs": self.epochs,
                "checkpoint_every": self.checkpoint_every,
                "wal_segment_bytes": self.wal_segment_bytes,
                "wal_sync": self.wal_sync,
            },
        }

    def checkpoint(self, path=None) -> Path:
        """Atomically snapshot the model with this service's watermark.

        Synchronous: waits for any background checkpoint, then captures,
        writes and publishes on the calling thread via
        :meth:`repro.base.EmbeddingMethod.save` (temp file +
        ``os.replace``; a crash mid-save leaves the previous snapshot
        intact), then prunes every WAL segment the snapshot made redundant
        — recovery only ever needs the WAL suffix past the watermark.
        Returns the published path.
        """
        self._collect(wait=True)
        return self._publish(self._capture(path), pin=path is None)

    def _capture(self, path) -> tuple:
        """Freeze a checkpoint on the calling thread.

        Returns ``(snapshot, target, watermark, batches)``.  The snapshot
        holds copies of everything a later ingest or absorb could change in
        place; the WAL is rotated so batches logged from here on land in
        segments this checkpoint will not prune.
        """
        target = self.checkpoint_path if path is None else Path(path)
        if target is None:
            raise ValueError(
                "no checkpoint path: pass path= or construct the service "
                "with checkpoint_path="
            )
        faults.crash_point("service.checkpoint.begin")
        snapshot = self.model._snapshot()
        watermark = self._watermark()
        if self._wal is not None:
            self._wal.rotate()
        return snapshot, target, watermark, self._batches

    def _publish(self, capture: tuple, pin: bool) -> Path:
        """Publish a captured checkpoint, then prune the WAL and count it.

        ``save`` writes the archive first unless the background writer
        already did.
        """
        snapshot, target, watermark, batches = capture
        published = snapshot.save(target, watermark=watermark)
        if pin:
            # Pin the resolved (.npz-suffixed) path so later snapshots
            # replace this one instead of writing a sibling.
            self.checkpoint_path = published
        faults.crash_point("service.checkpoint.published")
        if self._wal is not None:
            self._wal.prune(batches)
        self._checkpoints += 1
        return published

    def _collect(self, wait: bool) -> None:
        """Publish the checkpoint the background writer has in flight.

        With ``wait=False`` a write still running is left alone.  A
        finished one is settled here, on the service thread: a failed write
        is raised (nothing is pruned, so the previous checkpoint plus the
        WAL still recover exactly); a completed one is published, which
        prunes the WAL.
        """
        if self._in_flight is None:
            return
        future, capture = self._in_flight
        if not (wait or future.done()):
            return
        self._in_flight = None
        future.result()
        self._publish(capture, pin=True)

    @classmethod
    def recover(
        cls, checkpoint_path, wal_dir=None, **overrides
    ) -> "OnlineService":
        """Rebuild the exact pre-crash service from checkpoint + WAL.

        Loads the checkpoint (verifying its checksums) with the time scale
        the original service ran under pinned before the model builds its
        walk engine, over the absorbed prefix its live twin sampled from
        (the unabsorbed tail is appended after), restores every counter
        from the embedded watermark, then replays every WAL record past
        the watermark through the ordinary ingest loop (``train_every``
        absorbs fire exactly as they originally did; the restored RNG
        makes them deterministic).  The result is indistinguishable from a service that never crashed:
        bitwise-equal event table and graph, identical encode answers
        within the precision policy.

        ``overrides`` replace watermark-recorded service settings
        (``train_every=None`` to stop auto-absorbing, a different
        ``checkpoint_every``, …).  ``checkpoint_path`` for *future*
        snapshots defaults to the recovered archive itself.
        """
        ck = load_checkpoint(checkpoint_path)
        wm = ck.watermark
        if wm is None:
            raise CheckpointError(
                f"{checkpoint_path} is a plain model checkpoint with no "
                "stream watermark; only OnlineService.checkpoint() output "
                "is recoverable (wrap the model in a fresh service instead)"
            )
        model = EmbeddingMethod._restore(
            ck, time_scale=wm.get("time_scale"), unabsorbed=int(wm["staleness"])
        )
        cfg = dict(wm.get("service") or {})
        ckpt_path = overrides.pop("checkpoint_path", Path(checkpoint_path))
        cfg.update(overrides)
        service = cls(
            model,
            wal_dir=wal_dir,
            checkpoint_path=ckpt_path,
            **cfg,
        )
        service._head = float(wm["head_time"])
        service._ingested = int(wm["events"])
        service._batches = int(wm["batches"])
        service._absorbs = int(wm["absorbs"])
        service._since_absorb = int(wm["staleness"])
        service._batches_since_absorb = int(wm["batches_since_absorb"])
        if service._wal is not None:
            wal = service._wal
            if wal.first_seq is not None and wal.first_seq > service._batches + 1:
                raise WALError(
                    f"cannot recover: the WAL begins at batch {wal.first_seq} "
                    f"but the checkpoint's watermark is batch "
                    f"{service._batches} — the segments in between were "
                    "pruned by a newer checkpoint; recover from that one"
                )
            service._replaying = True
            try:
                for record in wal.records(start_seq=service._batches + 1):
                    service.ingest(record.batch)
            finally:
                service._replaying = False
            if wal.last_seq < service._batches:
                # The checkpoint pruned the whole log: re-anchor its
                # sequence counter so post-recovery appends continue the
                # stream instead of restarting at 1.
                wal.fast_forward(service._batches)
        return service

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One flat snapshot of the service's counters and timings.

        Waits for a background checkpoint first, so ``checkpoints`` and the
        WAL figures count it.  ``ingest_events_per_sec`` is events
        over the wall time of whole ``ingest`` calls, less the automatic
        absorbs they ran (``absorb_seconds`` reports those).
        """
        self._collect(wait=True)
        encode = self.encode_latency.stats()
        return {
            "events_ingested": self._ingested,
            "batches_ingested": self._batches,
            "ingest_events_per_sec": self.ingest_throughput.events_per_sec,
            "absorbs": self._absorbs,
            "absorb_seconds": self.absorb_seconds,
            "staleness_events": self.staleness,
            "pending_events": self.graph.pending_events,
            "compactions": self.graph.compactions,
            "encode_queries": encode["count"],
            "encode_p50_ms": encode["p50_ms"],
            "encode_p99_ms": encode["p99_ms"],
            "encode_mean_ms": encode["mean_ms"],
            "checkpoints": self._checkpoints,
            "wal_segments": 0 if self._wal is None else len(self._wal.segment_paths),
            "wal_disk_bytes": 0 if self._wal is None else self._wal.disk_bytes,
        }

    def close(self) -> None:
        """Finish the background checkpoint, join the checkpoint writer and
        release the WAL's open segment handle (idempotent).

        A failed write is raised after the writer and the WAL are released.
        """
        try:
            self._collect(wait=True)
        finally:
            if self._writer is not None:
                self._writer.shutdown()
                self._writer = None
            if self._wal is not None:
                self._wal.close()

    def __repr__(self) -> str:
        return (
            f"OnlineService({type(self.model).__name__}, "
            f"events={self._ingested}, absorbs={self._absorbs}, "
            f"staleness={self.staleness})"
        )
