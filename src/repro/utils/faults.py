"""Fault injection for crash-safety testing.

The durability layer (the write-ahead log in ``repro.stream.wal``, the
atomic checkpoints in ``repro.utils.checkpoint``, the memmap store's
finalize) claims to survive a process dying at *any* instant.  That claim is
only testable if tests can actually kill the process at every interesting
instant — so the durable code paths are instrumented with **named injection
points**, and this module arms them:

- :func:`crash_point` — a named marker inside a durable code path.  A no-op
  (one global ``None`` check) unless a test armed that name via
  :func:`inject`, in which case it raises :class:`InjectedCrash` — the
  simulated ``kill -9`` (from the filesystem's point of view a raised
  exception that abandons all in-memory state is exactly a process death;
  what survives is what was written and flushed).
- :func:`torn_write` — write ``data`` to a file, but when the named point is
  armed with a ``byte_limit``, write only that many bytes and crash: a
  **torn write**, the half-record a real crash leaves at the tail of a log.
- :func:`wrap_file` — wrap an open binary file so the same byte budget
  applies to writers we don't control line by line (``np.savez`` writing a
  checkpoint archive).

Tests arm exactly one fault at a time::

    with faults.inject("wal.append.synced"):
        with pytest.raises(InjectedCrash):
            service.ingest(batch)          # dies after the WAL fsync
    recovered = OnlineService.recover(ckpt, wal_dir)

:data:`SERVICE_INJECTION_POINTS` enumerates every point in the service's
ingest -> WAL -> absorb -> checkpoint cycle, so the crash-everywhere sweep
(``tests/stream/test_recovery.py``, ``faults`` marker) can assert exact
recovery at each one without hand-maintaining the list in two places.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "InjectedCrash",
    "SERVICE_INJECTION_POINTS",
    "active_fault",
    "crash_point",
    "inject",
    "torn_write",
    "wrap_file",
]


class InjectedCrash(RuntimeError):
    """The simulated process death raised at an armed injection point."""


#: Every injection point in the OnlineService ingest->WAL->checkpoint cycle,
#: in the order the cycle hits them.  Points suffixed ``:torn`` are armed
#: with a byte limit (a partial write is left on disk); the rest crash
#: cleanly at the marker.  The crash-everywhere recovery sweep iterates this.
#: Every point fires on the service's calling thread except
#: ``checkpoint.write``, which an automatic checkpoint hits on its background
#: writer thread; that crash surfaces from the next call that collects the
#: write.  The two publish points after it fire on the service thread when
#: that call publishes.
SERVICE_INJECTION_POINTS = (
    "service.ingest.validated",  # batch validated; nothing durable yet
    "wal.append.begin",  # inside the WAL, before any bytes hit the segment
    "wal.append.write:torn",  # record half-written: torn tail in the log
    "wal.append.synced",  # record durable, graph not yet touched
    "service.ingest.applied",  # graph extended, counters not yet updated
    "service.absorb.begin",  # before partial_fit trains
    "service.absorb.trained",  # trained, staleness not yet reset
    "service.checkpoint.begin",  # before the snapshot is captured
    "checkpoint.write:torn",  # writer: temp archive half-written, old ckpt intact
    "checkpoint.before_publish",  # temp complete + fsynced, not yet renamed
    "service.checkpoint.published",  # os.replace done, WAL not yet pruned
)


class _Fault:
    """One armed fault: a named point, an optional skip count and byte limit."""

    def __init__(self, point: str, skip: int = 0, byte_limit: int | None = None):
        self.point = str(point)
        self.skip = int(skip)
        self.byte_limit = None if byte_limit is None else int(byte_limit)
        self.hits = 0
        self.fired = False

    def _arm_hit(self) -> bool:
        """Count a hit; True when this is the armed occurrence."""
        if self.fired:
            return False
        self.hits += 1
        if self.hits <= self.skip:
            return False
        self.fired = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Fault({self.point!r}, skip={self.skip}, "
            f"byte_limit={self.byte_limit}, fired={self.fired})"
        )


#: The single armed fault (tests arm one at a time), or None.
_ACTIVE: _Fault | None = None


def active_fault() -> _Fault | None:
    """The currently armed fault, or None (observability for tests)."""
    return _ACTIVE


@contextmanager
def inject(point: str, *, skip: int = 0, byte_limit: int | None = None):
    """Arm one injection point for the duration of the block.

    ``point`` names the marker to trip (for ``:torn`` points pass the bare
    name and a ``byte_limit``).  ``skip`` lets the fault pass the first
    ``skip`` hits before firing, so a sweep can crash the *n*-th WAL append
    rather than the first.  ``byte_limit`` turns the point into a torn
    write: the instrumented writer emits exactly that many bytes, then
    crashes.  Yields the armed fault (``fault.fired`` tells whether the code
    under test reached the point at all).  Nesting is rejected — one fault
    at a time keeps every crash scenario interpretable.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(f"a fault is already armed: {_ACTIVE!r}")
    fault = _Fault(point, skip=skip, byte_limit=byte_limit)
    _ACTIVE = fault
    try:
        yield fault
    finally:
        _ACTIVE = None


def crash_point(name: str) -> None:
    """Marker inside a durable code path; raises when ``name`` is armed.

    Armed points carrying a ``byte_limit`` do **not** fire here — they fire
    inside :func:`torn_write` / :func:`wrap_file`, where the partial bytes
    can actually be produced.
    """
    fault = _ACTIVE
    if fault is None or fault.point != name or fault.byte_limit is not None:
        return
    if fault._arm_hit():
        raise InjectedCrash(f"injected crash at {name!r}")


def torn_write(fh, data: bytes, name: str) -> None:
    """Write ``data`` to ``fh`` — torn short when ``name`` is armed.

    The unarmed path is a single ``fh.write(data)``.  Armed with a byte
    limit, exactly ``min(byte_limit, len(data))`` bytes are written and
    flushed (they must be *on disk* — a torn write the crash never persisted
    would be indistinguishable from no write), then :class:`InjectedCrash`
    is raised.
    """
    fault = _ACTIVE
    if (
        fault is None
        or fault.point != name
        or fault.byte_limit is None
        or not fault._arm_hit()
    ):
        fh.write(data)
        return
    fh.write(data[: fault.byte_limit])
    fh.flush()
    raise InjectedCrash(
        f"injected torn write at {name!r}: {min(fault.byte_limit, len(data))} "
        f"of {len(data)} bytes persisted"
    )


def wrap_file(fh, name: str):
    """Wrap an open binary file so a byte budget applies across writes.

    Returns ``fh`` untouched unless ``name`` is armed with a ``byte_limit``;
    armed, the wrapper forwards everything but counts bytes through
    ``write`` and crashes once the budget is spent — for writers that emit
    many internal writes we cannot intercept individually (``np.savez``
    building a checkpoint archive).
    """
    fault = _ACTIVE
    if fault is None or fault.point != name or fault.byte_limit is None:
        return fh
    return _BudgetedFile(fh, fault)


class _BudgetedFile:
    """File proxy that crashes after its fault's byte budget is written."""

    def __init__(self, fh, fault: _Fault):
        self._fh = fh
        self._fault = fault
        self._written = 0

    def write(self, data):
        budget = self._fault.byte_limit - self._written
        if budget <= 0 or self._fault.fired:
            self._fault.fired = True
            raise InjectedCrash(
                f"injected crash at {self._fault.point!r}: byte budget "
                f"{self._fault.byte_limit} exhausted"
            )
        chunk = bytes(data)[: max(budget, 0)]
        n = self._fh.write(chunk)
        self._written += len(chunk)
        if len(chunk) < len(data):
            self._fh.flush()
            self._fault.fired = True
            raise InjectedCrash(
                f"injected torn write at {self._fault.point!r}: byte budget "
                f"{self._fault.byte_limit} exhausted"
            )
        return n

    def __getattr__(self, attr):
        return getattr(self._fh, attr)
