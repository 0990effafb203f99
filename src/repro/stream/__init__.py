"""Streaming ingestion and online serving over temporal graphs.

The online counterpart of the batch pipeline: EHNA aggregates *historical*
neighborhoods, so a trained model can keep serving — and keep learning —
while new events arrive.  Four pieces compose the loop:

- :class:`EventStreamLoader` — validated, time-ordered micro-batching of an
  event stream (by count or by time window), with graph replay;
- the amortized ``TemporalGraph.extend_in_place``/``compact`` path (in
  ``repro.graph.temporal_graph``) — O(batch) appends, deferred re-sort;
- :class:`WriteAheadLog` — crash-safe durability: every batch is logged
  (CRC-checked, segment-rotated) before it is applied, and
  :meth:`OnlineService.recover` replays the suffix past the newest
  checkpoint's watermark for exact recovery;
- :class:`OnlineService` — drives ``ingest -> absorb (partial_fit) ->
  encode`` with staleness tracking, throughput and latency stats, plus
  atomic watermarked checkpoints.

See the "streaming layer" and "durability and recovery" sections of
``docs/architecture.md``, ``examples/streaming_service.py`` and
``examples/crash_recovery.py`` for the end-to-end loops.
"""

from repro.storage.base import EventBatch
from repro.stream.loader import EventStreamLoader
from repro.stream.metrics import LatencyTracker, ThroughputTracker
from repro.stream.service import OnlineService
from repro.stream.wal import (
    WALCorruptionError,
    WALError,
    WALRecord,
    WriteAheadLog,
)

__all__ = [
    "EventBatch",
    "EventStreamLoader",
    "LatencyTracker",
    "OnlineService",
    "ThroughputTracker",
    "WALCorruptionError",
    "WALError",
    "WALRecord",
    "WriteAheadLog",
]
