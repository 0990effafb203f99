"""Edge-list IO for temporal graphs.

The on-disk text format is the one used by the public datasets the paper
evaluates on (Digg, Yelp, Tmall, DBLP): one interaction per line,
whitespace- or comma-separated ``src dst timestamp [weight]``, ``#``-prefixed
comments.  Node ids in files may be arbitrary integers or strings; they are
relabelled to a dense ``0..n-1`` range and the mapping is returned.

Parsing is **chunked**: lines are consumed in bounded blocks and converted
to numpy columns per block, so memory holds one chunk of Python objects plus
the (distinct-label-bounded) interning dict — never a Python list per row of
the whole file.  Two sinks share the parser:

- :func:`load_edge_list` accumulates chunk columns and builds an in-memory
  :class:`~repro.graph.temporal_graph.TemporalGraph`;
- :func:`ingest_edge_list` streams each chunk straight into a columnar
  on-disk :class:`~repro.storage.MemmapStorage` (unsorted files are sorted
  once at finalize), so a multi-million-event CSV never materializes.

Round-tripping is exact: :func:`save_edge_list` writes timestamps/weights
with ``repr`` (shortest float64-round-trip form) and can embed the label
table (``# label <id> <name>`` header lines, which also preserve isolated
nodes and the id assignment), and :func:`load_edge_list` restores it — so
``load(save(g))`` reproduces the edge columns bitwise, the node labels, and
``num_nodes``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.storage.base import validate_event_columns
from repro.storage.memmap import MemmapStorage, MemmapStorageWriter

#: Lines parsed per chunk — bounds the per-chunk Python object population.
DEFAULT_CHUNK_LINES = 65_536

#: Header prefix for embedded label-table lines (still a ``#`` comment, so
#: files stay readable by any other edge-list consumer).
_LABEL_PREFIX = "# label "


def _parse_chunks(path: Path, labels: dict[str, int], chunk_lines: int):
    """Yield ``(src, dst, time, weight)`` numpy column chunks from ``path``.

    ``labels`` is the live interning dict (label -> dense id), shared across
    chunks and mutated in place; it may arrive pre-seeded (an embedded label
    table, or a caller-supplied mapping for exact round-trips).  Malformed
    lines raise with their ``path:line`` location.
    """
    src: list[int] = []
    dst: list[int] = []
    time: list[float] = []
    weight: list[float] = []

    def flush():
        chunk = (
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            np.array(time, dtype=np.float64),
            np.array(weight, dtype=np.float64),
        )
        src.clear()
        dst.clear()
        time.clear()
        weight.clear()
        return chunk

    with path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                if line.startswith(_LABEL_PREFIX):
                    _read_label_line(line, labels, path, line_no)
                continue
            parts = line.replace(",", " ").split()
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"{path}:{line_no}: expected 'src dst time [weight]', got {raw!r}"
                )
            u = labels.setdefault(parts[0], len(labels))
            v = labels.setdefault(parts[1], len(labels))
            src.append(u)
            dst.append(v)
            time.append(float(parts[2]))
            weight.append(float(parts[3]) if len(parts) == 4 else 1.0)
            if len(src) >= chunk_lines:
                yield flush()
    if src:
        yield flush()


def _read_label_line(
    line: str, labels: dict[str, int], path: Path, line_no: int
) -> None:
    """Absorb one ``# label <id> <name>`` header line into ``labels``."""
    fields = line[len(_LABEL_PREFIX) :].split()
    if len(fields) != 2 or not fields[0].isdigit():
        raise ValueError(
            f"{path}:{line_no}: malformed label line (want '# label <id> <name>')"
        )
    node_id, name = int(fields[0]), fields[1]
    known = labels.get(name)
    if known is not None and known != node_id:
        raise ValueError(
            f"{path}:{line_no}: label {name!r} redefined from id {known} to "
            f"{node_id}"
        )
    labels[name] = node_id


def _num_nodes_from(labels: dict[str, int], *maxima: int) -> int:
    """Node count covering every interned id and every observed edge id."""
    top = max(maxima, default=-1)
    if labels:
        top = max(top, max(labels.values()))
    return top + 1


def load_edge_list(
    path, labels: dict[str, int] | None = None, chunk_lines: int = DEFAULT_CHUNK_LINES
) -> tuple[TemporalGraph, dict[str, int]]:
    """Load a temporal graph from an edge-list file.

    Returns ``(graph, label_to_id)`` where ``label_to_id`` maps the original
    node labels (as strings) to the dense ids used by the graph.  A
    ``labels`` mapping — or ``# label`` header lines written by
    :func:`save_edge_list` — pre-seeds the interning, which fixes the id
    assignment (and via out-of-edge ids, ``num_nodes``) for exact
    round-trips; otherwise ids are assigned by first appearance.
    """
    path = Path(path)
    labels = dict(labels) if labels else {}
    chunks = list(_parse_chunks(path, labels, chunk_lines))
    if not chunks:
        raise ValueError(f"{path} contains no edges")
    src, dst, time, weight = (
        np.concatenate([c[i] for c in chunks]) for i in range(4)
    )
    graph = TemporalGraph.from_edges(
        src,
        dst,
        time,
        weight,
        num_nodes=_num_nodes_from(labels, int(src.max()), int(dst.max())),
    )
    return graph, labels


def ingest_edge_list(
    path,
    store_dir,
    labels: dict[str, int] | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
    meta: dict | None = None,
) -> tuple[MemmapStorage, dict[str, int]]:
    """Stream an edge-list file into a columnar on-disk event store.

    The chunked counterpart of :func:`load_edge_list` for files too large to
    hold as arrays: each parsed chunk goes straight to a
    :class:`~repro.storage.MemmapStorageWriter` (out-of-order timestamps are
    handled by the writer's finalize-time stable sort), and the returned
    store feeds :meth:`TemporalGraph.from_storage
    <repro.graph.temporal_graph.TemporalGraph.from_storage>` without ever
    materializing the event table in memory.  Returns ``(storage,
    label_to_id)``.
    """
    path = Path(path)
    labels = dict(labels) if labels else {}
    meta = {"source": str(path), **(meta or {})}
    writer = MemmapStorageWriter(store_dir, meta=meta)
    for chunk in _parse_chunks(path, labels, chunk_lines):
        writer.append(validate_event_columns(*chunk))
    if writer.num_events == 0:
        raise ValueError(f"{path} contains no edges")
    return writer.finalize(), labels


def save_edge_list(
    graph: TemporalGraph,
    path,
    include_weight: bool = True,
    labels: dict[str, int] | None = None,
    chunk_events: int = DEFAULT_CHUNK_LINES,
) -> None:
    """Write ``graph`` as a ``src dst time [weight]`` edge list.

    Timestamps and weights are written in ``repr`` form — the shortest
    string that parses back to the identical float64 — so a save/load cycle
    reproduces the edge columns bitwise.  With ``labels`` (a label -> id
    mapping, e.g. the one :func:`load_edge_list` returned), edges carry the
    original labels and a ``# label`` header records the full table, making
    the round trip exact for ids and ``num_nodes`` too (isolated nodes
    included); without it, nodes are written by numeric id.  Output streams
    in ``chunk_events`` blocks.
    """
    path = Path(path)
    name_of = None
    if labels:
        name_of = {}
        for name, node_id in labels.items():
            if node_id in name_of:
                raise ValueError(
                    f"labels map two names ({name_of[node_id]!r}, {name!r}) "
                    f"to id {node_id}"
                )
            if " " in name or "\t" in name:
                raise ValueError(f"node label {name!r} contains whitespace")
            name_of[node_id] = name
    src, dst, time, weight = graph.src, graph.dst, graph.time, graph.weight
    with path.open("w") as fh:
        fh.write("# src dst time" + (" weight" if include_weight else "") + "\n")
        if name_of is not None:
            for node_id in sorted(name_of):
                fh.write(f"{_LABEL_PREFIX}{node_id} {name_of[node_id]}\n")
        for lo in range(0, graph.num_edges, int(chunk_events)):
            hi = lo + int(chunk_events)
            rows = zip(
                src[lo:hi].tolist(),
                dst[lo:hi].tolist(),
                time[lo:hi].tolist(),
                weight[lo:hi].tolist(),
            )
            if include_weight:
                lines = (
                    f"{_name(u, name_of)} {_name(v, name_of)} {t!r} {w!r}"
                    for u, v, t, w in rows
                )
            else:
                lines = (
                    f"{_name(u, name_of)} {_name(v, name_of)} {t!r}"
                    for u, v, t, _ in rows
                )
            fh.write("\n".join(lines) + "\n")


def _name(node_id: int, name_of: dict[int, str] | None) -> str:
    """The label to write for ``node_id`` (its numeric id when unlabelled)."""
    if name_of is None:
        return str(node_id)
    return name_of.get(node_id, str(node_id))
