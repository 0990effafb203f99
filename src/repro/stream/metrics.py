"""Serving metrics: latency percentiles and sustained throughput.

Plain accumulators over wall-clock samples — no locks, no windowing —
because only the service's calling thread records into them (the one
background thread, the checkpoint writer, never does; see
``docs/architecture.md``).  :class:`LatencyTracker` keeps every sample so
``p50``/``p99`` are exact order statistics rather than sketch estimates; at
one float per query this costs less memory than the query's own walk batch.
"""

from __future__ import annotations

import numpy as np


class LatencyTracker:
    """Accumulates per-call latencies and reports exact percentiles.

    Record wall-clock *seconds* (what ``time.perf_counter`` differences
    give); the summary reports *milliseconds*, the natural unit for encode
    queries.  An empty tracker summarizes to zeros rather than NaN so
    ``stats()`` is always printable.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []

    def record(self, seconds: float) -> None:
        """Add one latency sample, in seconds."""
        self._samples.append(float(seconds))

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile latency in milliseconds (0 when empty)."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), p)) * 1e3

    def stats(self) -> dict[str, float]:
        """``{count, p50_ms, p99_ms, mean_ms, max_ms}`` of the samples."""
        if not self._samples:
            return {
                "count": 0,
                "p50_ms": 0.0,
                "p99_ms": 0.0,
                "mean_ms": 0.0,
                "max_ms": 0.0,
            }
        arr = np.asarray(self._samples)
        return {
            "count": int(arr.size),
            "p50_ms": float(np.percentile(arr, 50)) * 1e3,
            "p99_ms": float(np.percentile(arr, 99)) * 1e3,
            "mean_ms": float(arr.mean()) * 1e3,
            "max_ms": float(arr.max()) * 1e3,
        }


class ThroughputTracker:
    """Accumulates (events, seconds) pairs into a sustained events/sec rate."""

    def __init__(self) -> None:
        self.events = 0
        self.seconds = 0.0

    def add(self, events: int, seconds: float) -> None:
        """Account ``events`` processed in ``seconds`` of wall-clock time."""
        self.events += int(events)
        self.seconds += float(seconds)

    @property
    def events_per_sec(self) -> float:
        """Sustained rate over everything recorded (0 before any work)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.events / self.seconds
