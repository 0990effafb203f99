"""Shared-memory storage: zero-copy graphs across worker processes.

The third :class:`~repro.storage.GraphStorage` backend (after
``ArrayStorage`` and ``MemmapStorage``) places a temporal graph's event
columns *and* its derived index structures — the incidence CSR, the
distinct-neighbor CSR, the pair index, the scaled timestamps — inside one
``multiprocessing.shared_memory`` segment.  A :class:`PackHandle` describing
the segment (name, array table, metadata) is picklable and tiny, so a worker
process attaches with

    graph = TemporalGraph.from_handle(handle)

paying zero copies and zero index rebuilds: every array the walk engine
gathers from is the leader's physical memory, mapped read-only.

Two layers live here:

- :class:`SharedArrayPack` — a generic named bundle of numpy arrays in one
  segment.  The parallel trainer reuses it for the flat parameter vector.
- :class:`SharedMemoryStorage` — the graph-shaped pack implementing the
  ``GraphStorage`` protocol (``backend = "shared"``), with the derived index
  arrays packed next to the event columns.

**Write discipline.**  Every view handed out is read-only
(``writeable=False``).  ``array(name, writable=True)`` re-derives write
access over the same bytes — the escape hatch the leader's parameter steps
need — and reprolint rule PAR001 confines such calls (and any other
writeable-flag flip) to ``repro/parallel``.

**Cleanup.**  The creating process owns the segment: a ``weakref.finalize``
unlinks it when the pack is garbage collected or the interpreter exits, and
:meth:`close` does the same eagerly (idempotent — the finalizer runs once).
Attaching processes only ever close their mapping.  Resource-tracker
bookkeeping needs no special handling here: spawn children inherit the
leader's tracker daemon (``spawn.py`` passes ``tracker_fd``), whose cache is
a *set*, so the attach-side re-registration is idempotent and the owner's
``unlink`` issues the single matching unregister.  An extra unregister on
attach (the Python 3.11 stand-in for 3.12's ``track=False``) would actually
*cause* the tracker noise it tries to prevent — a ``KeyError`` in the
tracker daemon when the owner later unlinks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.storage.base import COLUMNS, GraphStorage

#: Byte alignment of every array inside a segment.  64 covers the widest
#: dtype here and keeps rows cache-line aligned for the gather-heavy walks.
_ALIGN = 64


@dataclass(frozen=True)
class PackHandle:
    """Picklable description of a :class:`SharedArrayPack` segment.

    ``arrays`` is a tuple of ``(name, dtype_str, shape, offset)`` rows;
    ``meta`` is a tuple of ``(key, value)`` pairs (kept as pairs so the
    handle stays hashable).  The handle is all a worker needs to attach.
    """

    name: str
    arrays: tuple
    meta: tuple = ()

    def meta_dict(self) -> dict:
        return dict(self.meta)


def _release_segment(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """Close (and, for the owner, unlink) a segment; safe to call once.

    Outstanding numpy views keep the underlying mmap alive and make
    ``close`` raise ``BufferError`` — swallowed here, because unlinking is
    what actually releases the name, and the map dies with the last view.
    """
    try:
        shm.close()
    except BufferError:
        pass  # views outstanding; the mapping dies with them
    if owner:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass  # already unlinked (e.g. an explicit close ran first)


class SharedArrayPack:
    """A named bundle of numpy arrays in one shared-memory segment.

    Create with :meth:`create` (the owning process) or :meth:`attach` (a
    worker, from a pickled :class:`PackHandle`).  Views are read-only; see
    the module docstring for the write discipline and cleanup contract.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: PackHandle, owner: bool):
        self._shm = shm
        self._handle = handle
        self._owner = owner
        self._views: dict[str, np.ndarray] = {}
        self._finalizer = weakref.finalize(self, _release_segment, shm, owner)

    # -- construction --------------------------------------------------
    @classmethod
    def create(cls, arrays: dict, meta: dict | None = None, name: str | None = None):
        """Pack ``arrays`` (name -> ndarray, order preserved) into a fresh segment."""
        if not arrays:
            raise ValueError("a shared pack needs at least one array")
        specs = []
        offset = 0
        for key, arr in arrays.items():
            arr = np.asarray(arr)
            offset = -(-offset // _ALIGN) * _ALIGN  # round up to alignment
            specs.append((str(key), arr.dtype.str, tuple(arr.shape), offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1), name=name)
        handle = PackHandle(
            name=shm.name,
            arrays=tuple(specs),
            meta=tuple((meta or {}).items()),
        )
        pack = cls(shm, handle, owner=True)
        for (key, dstr, shape, off), arr in zip(specs, arrays.values()):
            view = np.ndarray(shape, dtype=np.dtype(dstr), buffer=shm.buf, offset=off)
            view[...] = arr
            view.flags.writeable = False
            pack._views[key] = view
        return pack

    @classmethod
    def attach(cls, handle: PackHandle):
        """Map an existing segment read-only (worker side; zero copy)."""
        shm = shared_memory.SharedMemory(name=handle.name, create=False)
        pack = cls(shm, handle, owner=False)
        for key, dstr, shape, off in handle.arrays:
            view = np.ndarray(tuple(shape), dtype=np.dtype(dstr), buffer=shm.buf, offset=off)
            view.flags.writeable = False
            pack._views[key] = view
        return pack

    # -- access --------------------------------------------------------
    @property
    def handle(self) -> PackHandle:
        return self._handle

    @property
    def owner(self) -> bool:
        """Whether this process created (and will unlink) the segment."""
        return self._owner

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    @property
    def segment_name(self) -> str:
        return self._handle.name

    @property
    def nbytes(self) -> int:
        """Bytes of the packed arrays (excluding alignment padding)."""
        return sum(v.nbytes for v in self._views.values()) if self._views else 0

    def names(self) -> tuple[str, ...]:
        return tuple(key for key, _, _, _ in self._handle.arrays)

    def array(self, name: str, writable: bool = False) -> np.ndarray:
        """The named array as a view into the segment.

        The default view is read-only.  ``writable=True`` re-derives write
        access over the same bytes — only ``repro/parallel`` may do this
        (reprolint PAR001): the leader's parameter vector is the one
        sanctioned shared-write site.
        """
        if self.closed:
            raise ValueError(f"shared pack {self._handle.name!r} is closed")
        if not writable:
            try:
                return self._views[name]
            except KeyError:
                raise KeyError(f"no array {name!r} in shared pack") from None
        for key, dstr, shape, off in self._handle.arrays:
            if key == name:
                return np.ndarray(
                    tuple(shape), dtype=np.dtype(dstr), buffer=self._shm.buf, offset=off
                )
        raise KeyError(f"no array {name!r} in shared pack")

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks.

        Idempotent: the underlying finalizer runs at most once, so calling
        ``close`` twice (or letting the garbage collector finalize after an
        explicit close) is a no-op.
        """
        self._views.clear()
        self._finalizer()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("owner" if self._owner else "attached")
        return (
            f"SharedArrayPack(name={self._handle.name!r}, "
            f"arrays={len(self._handle.arrays)}, {state})"
        )


class SharedMemoryStorage(GraphStorage):
    """Event columns + derived graph indexes in shared memory.

    The graph-shaped :class:`SharedArrayPack`: the four base event columns
    plus every derived structure a :class:`~repro.graph.TemporalGraph`
    normally builds (incidence CSR, distinct CSR, degrees, pair index,
    scaled times).  ``TemporalGraph.to_shared()`` builds one;
    ``TemporalGraph.from_handle()`` attaches a zero-copy, zero-rebuild twin
    in another process.  All views are read-only; mutation of a
    shared-backed graph materializes into a fresh ``ArrayStorage`` exactly
    like the memmap backend (the segment is an immutable snapshot).
    """

    backend = "shared"

    #: Derived index arrays packed next to the event columns, in pack order.
    DERIVED = (
        "inc_offsets",
        "inc_nbr",
        "inc_time",
        "inc_weight",
        "inc_eid",
        "degree",
        "dindptr",
        "dnbr",
        "dmult",
        "times01",
        "pair_keys",
    )

    def __init__(self, pack: SharedArrayPack):
        meta = pack.handle.meta_dict()
        self._pack = pack
        self._num_nodes = int(meta["num_nodes"])
        self._num_events = int(meta["num_events"])
        scale = meta.get("time_scale")
        self._time_scale = None if scale is None else (float(scale[0]), float(scale[1]))

    @classmethod
    def from_graph_arrays(
        cls,
        columns: dict,
        derived: dict,
        num_nodes: int,
        time_scale: tuple | None = None,
        name: str | None = None,
    ) -> "SharedMemoryStorage":
        """Pack already built graph arrays into a fresh segment (owner side)."""
        missing = [c for c in COLUMNS if c not in columns]
        missing += [d for d in cls.DERIVED if d not in derived]
        if missing:
            raise ValueError(f"missing graph arrays for shared storage: {missing}")
        arrays = {c: columns[c] for c in COLUMNS}
        arrays.update({d: derived[d] for d in cls.DERIVED})
        meta = {
            "num_nodes": int(num_nodes),
            "num_events": int(np.asarray(columns["src"]).size),
            "time_scale": None if time_scale is None else tuple(time_scale),
        }
        return cls(SharedArrayPack.create(arrays, meta=meta, name=name))

    @classmethod
    def attach(cls, handle: PackHandle) -> "SharedMemoryStorage":
        """Map another process's segment read-only (worker side)."""
        return cls(SharedArrayPack.attach(handle))

    # -- GraphStorage protocol -----------------------------------------
    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise KeyError(f"unknown event column {name!r}")
        return self._pack.array(name)

    @property
    def num_events(self) -> int:
        return self._num_events

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def loaded_columns(self) -> tuple[str, ...]:
        return COLUMNS

    # -- shared-memory surface -----------------------------------------
    def array(self, name: str) -> np.ndarray:
        """Any packed array (event column or derived index), read-only."""
        return self._pack.array(name)

    @property
    def handle(self) -> PackHandle:
        """The picklable attach token (see :class:`PackHandle`)."""
        return self._pack.handle

    @property
    def time_scale(self) -> tuple[float, float] | None:
        """The graph's pinned ``times01`` span at pack time, if any."""
        return self._time_scale

    @property
    def owner(self) -> bool:
        return self._pack.owner

    @property
    def closed(self) -> bool:
        return self._pack.closed

    def close(self) -> None:
        """Release the mapping (owner: unlink the segment); idempotent."""
        self._pack.close()
