"""The common interface all embedding methods implement (protocol v2).

EHNA and every baseline (Node2Vec, CTDNE, LINE, HTNE) expose the same
surface so the evaluation harnesses (network reconstruction, link
prediction, efficiency study) can treat them uniformly — exactly how
Section V compares them "on an equal footing" — and so a trained model can
be *served*: asked for an embedding of any node as of any time, updated
with arriving edges, and persisted to disk.

The v2 lifecycle::

    fit(graph) ──► encode(nodes, at=times)   time-anchored inference
              │    embeddings()              = encode(all, at=last event)
              │
              ├─► partial_fit(edges)         append streamed events, train
              │                              incrementally, stay servable
              │
              └─► save(path) ──► load(path)  versioned npz checkpoint
                                             (config + RNG + parameters)

Subclasses implement ``fit``/``embeddings`` plus four small hooks —
``_config_dict``, ``_state_dict``, ``_load_state_dict`` and
``_apply_partial_fit`` — and inherit the checkpoint plumbing and the
``partial_fit`` graph-extension path from this base class.  Time-invariant
methods (the static and table-producing baselines) inherit the default
``encode``, which documents and implements their semantics: the anchor time
is ignored and the post-training table row is returned.  EHNA overrides
``encode`` to run its aggregator at the requested anchors.
"""

from __future__ import annotations

import abc
import copy
from pathlib import Path

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.storage.base import EventBatch, validate_event_columns
from repro.utils.checkpoint import (
    CheckpointError,
    _publish_staged,
    _stage_checkpoint,
    load_checkpoint,
    restore_rng,
    rng_state,
)


def parse_edge_batch(edges) -> EventBatch:
    """Validate a streamed-edge batch from outside into an :class:`EventBatch`.

    An ``EventBatch`` is already validated and passes through.  Two raw
    layouts are validated here, disambiguated by type (a 3-edge batch of
    rows would otherwise be indistinguishable from three parallel columns):

    - a **tuple** of parallel column arrays ``(src, dst, time)`` or
      ``(src, dst, time, weight)``;
    - anything else (list, ndarray): a 2-D row matrix of shape ``(n, 3)`` /
      ``(n, 4)`` whose columns are ``u, v, t[, w]``.
    """
    if isinstance(edges, EventBatch):
        return edges
    if isinstance(edges, tuple):
        if len(edges) not in (3, 4):
            raise ValueError(
                "a tuple edge batch must be (src, dst, time) or "
                f"(src, dst, time, weight), got {len(edges)} elements"
            )
        return validate_event_columns(*edges)
    if (
        isinstance(edges, list)
        and len(edges) in (3, 4)
        and all(isinstance(e, np.ndarray) and e.ndim == 1 for e in edges)
    ):
        # A list of 3-4 ndarrays is almost certainly columns mistyped as a
        # list; silently transposing it into "rows" would corrupt the graph
        # whenever the arrays happen to have length 3 or 4.
        raise ValueError(
            "ambiguous edge batch: pass column arrays as a tuple "
            "(src, dst, time[, weight]), or rows as an (n, 3)/(n, 4) matrix"
        )
    arr = np.asarray(edges, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] not in (3, 4):
        raise ValueError(
            "edges must be a (src, dst, time[, weight]) tuple of arrays or an "
            f"(n, 3)/(n, 4) row matrix, got shape {getattr(arr, 'shape', None)}"
        )
    return validate_event_columns(*arr.T)


def check_node_ids(nodes, num_rows: int) -> np.ndarray:
    """``nodes`` as int64 ids into a table of ``num_rows`` rows: the id gate
    of ``encode``.  A non-integer id, a negative one, or one without a row
    (a node ingested but not yet absorbed) raises ``ValueError`` naming it."""
    raw = np.atleast_1d(np.asarray(nodes))
    if raw.dtype.kind == "f":
        whole = np.isfinite(raw) & (raw == np.round(raw))
    else:
        whole = np.full(raw.shape, raw.dtype.kind in "iu")
    if not whole.all():
        raise ValueError(f"node id {raw[~whole][0].item()!r} is not an integer")
    ids = raw.astype(np.int64, copy=False)
    if np.any(ids < 0):
        raise ValueError(f"node id {int(ids[ids < 0][0])} is negative")
    if np.any(ids >= num_rows):
        raise ValueError(
            f"node id {int(ids[ids >= num_rows][0])} has no embedding row among "
            f"{num_rows} (a new node gets one at the next absorb)"
        )
    return ids


def resolve_anchors(graph: TemporalGraph, nodes: np.ndarray, at):
    """Per-node anchor times for ``encode(nodes, at)``.

    ``at`` may be ``None`` (each node's last event time — the
    ``embeddings()`` anchor; isolated nodes get a missing anchor), a scalar
    applied to every node, or a sequence aligned with ``nodes`` (entries may
    be ``None`` to request the historyless fallback).  Returns a float
    array with ``NaN`` marking missing anchors for the ``None``/scalar
    forms (both resolved in one vectorized pass), or an aligned list for
    the sequence form.
    """
    if at is None:
        return graph.last_event_times(nodes)
    if isinstance(at, (int, float, np.integer, np.floating)):
        return np.full(nodes.size, float(at))
    anchors = list(at)
    if len(anchors) != nodes.size:
        raise ValueError(
            f"at has {len(anchors)} entries for {nodes.size} nodes; pass a "
            "scalar, None, or one anchor per node"
        )
    return [None if t is None else float(t) for t in anchors]


class EmbeddingMethod(abc.ABC):
    """A node-embedding learner over a temporal network (protocol v2)."""

    #: Human-readable name used in result tables.
    name: str = "method"

    #: The graph most recently passed to ``fit`` / produced by
    #: ``partial_fit`` (set by subclasses' ``fit``; ``None`` before).
    graph: TemporalGraph | None = None

    @abc.abstractmethod
    def fit(self, graph: TemporalGraph) -> "EmbeddingMethod":
        """Train on ``graph`` and return self."""

    @abc.abstractmethod
    def embeddings(self) -> np.ndarray:
        """The learned ``(num_nodes, dim)`` embedding matrix."""

    def embedding_of(self, node: int) -> np.ndarray:
        """Convenience accessor for a single node's vector."""
        return self.embeddings()[node]

    # ------------------------------------------------------------------
    # v2: time-anchored inference
    # ------------------------------------------------------------------
    def encode(self, nodes, at=None) -> np.ndarray:
        """Embed ``nodes`` as of anchor time(s) ``at``; returns ``(n, dim)``.

        **Time-invariance note:** this default implementation serves the
        post-training embedding table regardless of ``at`` — correct for the
        static baselines (node2vec, DeepWalk, LINE ignore time entirely)
        and the honest answer for table-producing temporal baselines (CTDNE,
        HTNE), whose training consumed time but whose output is one frozen
        vector per node.  EHNA overrides this to aggregate each node's
        historical neighborhood *up to* ``at``, so the same node yields
        different embeddings at different anchors.
        """
        table = self.embeddings()
        nodes = check_node_ids(nodes, table.shape[0])
        # Validate the anchor spec even though the table ignores it, so
        # malformed serving requests fail identically across methods
        # (at=None is trivially valid and skips the per-node resolution).
        if at is not None and self.graph is not None:
            resolve_anchors(self.graph, nodes, at)
        return table[nodes]

    # ------------------------------------------------------------------
    # v2: incremental training
    # ------------------------------------------------------------------
    def partial_fit(
        self, edges=None, num_nodes: int | None = None, epochs: int | None = None
    ) -> "EmbeddingMethod":
        """Append streamed ``edges`` to the graph and train incrementally.

        ``edges`` is parsed by :func:`parse_edge_batch` and appended to a
        :meth:`~repro.graph.temporal_graph.TemporalGraph.copy` of the graph
        through the amortized
        :meth:`~repro.graph.temporal_graph.TemporalGraph.extend_in_place`
        path (new nodes grow the embedding space; the caller's graph object
        is untouched).  ``edges=None`` trains on what is already buffered in
        ``self.graph`` — the online-service ingest path (see
        ``repro.stream``).  Either way every event ingested since the last
        absorb is claimed with ``take_fresh()`` and trained on exactly once,
        for ``epochs`` incremental epochs over the *fresh* events only — no
        refit from scratch.  With nothing fresh this is a no-op, so a
        zero-event training tick costs nothing and changes nothing.
        Requires a previous ``fit``.
        """
        if self.graph is None:
            raise RuntimeError("call fit() before partial_fit()")
        graph = self.graph
        if edges is not None:
            graph = graph.copy().extend_in_place(
                parse_edge_batch(edges), num_nodes=num_nodes
            )
        fresh = graph.take_fresh()
        if fresh.size == 0:
            return self
        self.graph = graph  # in place before the hook runs
        self._apply_partial_fit(graph, fresh, epochs)
        return self

    def _apply_partial_fit(
        self, graph: TemporalGraph, fresh_edge_ids: np.ndarray, epochs: int | None
    ) -> None:
        """Subclass hook: absorb ``graph`` (the extended network, already
        assigned to ``self.graph``) by training on ``fresh_edge_ids`` and
        updating any graph-derived state."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement incremental training"
        )

    # ------------------------------------------------------------------
    # v2: checkpointing
    # ------------------------------------------------------------------
    #: Keys the base class reserves in the checkpoint array namespace.
    _GRAPH_KEYS = ("graph/src", "graph/dst", "graph/time", "graph/weight")

    #: The archived array with one row per node the model has absorbed: its
    #: row count is the graph's node count at the last fit or absorb.
    _TABLE_KEY: str = ""

    def _precision_name(self) -> str:
        """The precision-policy name recorded in this method's checkpoints.

        The default reads the conventional ``precision`` attribute the
        baselines carry ("float64" when absent); EHNA overrides it to report
        its config's policy.
        """
        return getattr(self, "precision", None) or "float64"

    #: State a :meth:`_snapshot` froze, and the archive :meth:`_write` staged
    #: for the next :meth:`save` to publish (``None`` on a live model).
    _captured: tuple | None = None
    _staged: tuple | None = None

    def save(self, path, watermark: dict | None = None) -> Path:
        """Persist config, RNG state, graph and parameters to a ``.npz``.

        The archive carries a versioned header (see
        :mod:`repro.utils.checkpoint`) that records the precision policy the
        model was trained under plus a CRC32 checksum per array, and is
        **published atomically** (temp file + ``os.replace``), so a crash
        mid-save leaves the previous checkpoint intact; :meth:`load` refuses
        mismatched versions, failed checksums and precision-inconsistent
        archives with clear errors.  ``watermark`` optionally embeds a
        stream-recovery cursor (see
        :meth:`repro.stream.OnlineService.checkpoint`, which is how online
        services snapshot themselves).  Returns the resolved path.
        """
        if self._staged is None:
            self._write(path, watermark)
        staged = self._staged
        del self._staged  # back to the class default: nothing staged
        return _publish_staged(staged)

    def _write(self, path, watermark: dict | None = None) -> None:
        """The slow half of :meth:`save`: stage the archive beside ``path``.

        Checksums and serializes it to a temp file; the next
        ``save(path, watermark)`` only publishes it (fsync and rename).  On a
        :meth:`_snapshot` this touches nothing the live model owns, which is
        how the online service writes its automatic checkpoints on a
        background thread.
        """
        config, arrays, meta, precision = self._captured or self._capture()
        self._staged = _stage_checkpoint(
            path, type(self).__name__, config, arrays, meta, precision, watermark
        )

    def _capture(self) -> tuple[dict, dict, dict, str]:
        """``(config, arrays, meta, precision)``: what :meth:`save` writes.

        Reading the graph columns compacts any buffered events first.
        """
        arrays, meta = self._state_dict()
        arrays = dict(arrays)
        meta = dict(meta)
        meta["name"] = self.name
        meta["rng_state"] = rng_state(self._rng)
        if self.graph is not None:
            arrays["graph/src"] = self.graph.src
            arrays["graph/dst"] = self.graph.dst
            arrays["graph/time"] = self.graph.time
            arrays["graph/weight"] = self.graph.weight
            meta["graph_num_nodes"] = self.graph.num_nodes
        return self._config_dict(), arrays, meta, self._precision_name()

    def _snapshot(self) -> "EmbeddingMethod":
        """A frozen copy of this model for a later :meth:`_write` + :meth:`save`.

        The state ``save`` would write is captured now, on the calling
        thread, and every parameter array and header field is copied, so
        training or ingest after the capture cannot reach the archive.
        Graph columns are shared: graph growth rebinds them and never
        writes into them.  The copy is an instance of this model's class
        that serves only ``_write`` and ``save``.
        """
        config, arrays, meta, precision = self._capture()
        snapshot = object.__new__(type(self))
        snapshot._captured = (
            copy.deepcopy(config),
            {
                key: arr if key in self._GRAPH_KEYS else np.array(arr)
                for key, arr in arrays.items()
            },
            copy.deepcopy(meta),
            precision,
        )
        return snapshot

    @classmethod
    def load(cls, path, precision: str | None = None) -> "EmbeddingMethod":
        """Rebuild a trained method from :meth:`save` output.

        Callable on the base class (dispatches to the recorded subclass) or
        on a concrete class (which then must match the checkpoint).

        ``precision`` optionally pins the expected policy: loading a
        ``float32`` archive while requiring ``"float64"`` (or vice versa)
        raises :class:`CheckpointError` instead of silently casting a
        trained model across precisions — re-fit under the desired policy,
        or load under the recorded one and convert the *embeddings*
        explicitly.  Independently of the request, an archive whose header
        precision disagrees with its own recorded configuration is refused
        as corrupt.  Within a matching policy, array loading casts values
        into the model's buffers (a no-op for same-precision saves).
        """
        return cls._restore(load_checkpoint(path), precision)

    @classmethod
    def _restore(
        cls, ck, precision: str | None = None, time_scale=None, unabsorbed: int = 0
    ):
        """:meth:`load` from an already read checkpoint.

        ``time_scale`` pins the restored graph's ``times01`` span before the
        model builds any state from the graph — a recovering service needs
        its walk engine built under the scale the live service ran with.

        ``unabsorbed`` (a recovering service's staleness) newest rows are
        held back: the model is built over the absorbed prefix at its
        :attr:`_TABLE_KEY` table's node count, as its live twin was, and
        they are appended afterwards through ``extend_in_place``.
        """
        klass = _find_method_class(ck.class_name)
        if klass is None:
            raise CheckpointError(
                f"checkpoint was written by unknown method class {ck.class_name!r}"
            )
        if cls is not EmbeddingMethod and not issubclass(klass, cls):
            raise CheckpointError(
                f"checkpoint holds a {ck.class_name}, not a {cls.__name__}; "
                f"load it via {ck.class_name}.load(...)"
            )
        if precision is not None and precision != ck.precision:
            raise CheckpointError(
                f"checkpoint was saved under precision {ck.precision!r} but "
                f"{precision!r} was requested; load it under the recorded "
                f"policy or re-fit the model at the desired precision"
            )
        model = klass._from_config(ck.config)
        if model._precision_name() != ck.precision:
            raise CheckpointError(
                f"checkpoint header records precision {ck.precision!r} but its "
                f"configuration rebuilds a {model._precision_name()!r} model — "
                f"the archive is inconsistent (was it hand-edited?)"
            )
        meta = dict(ck.meta)
        arrays = dict(ck.arrays)
        if all(k in arrays for k in cls._GRAPH_KEYS):
            columns = [arrays.pop(k) for k in cls._GRAPH_KEYS]
            absorbed = columns[0].size - unabsorbed
            num_nodes = int(meta["graph_num_nodes"])
            if unabsorbed:
                num_nodes = arrays[klass._TABLE_KEY].shape[0]
            model.graph = TemporalGraph(num_nodes, *(c[:absorbed] for c in columns))
            if time_scale is not None:
                model.graph.pin_time_scale(*time_scale)
        model._rng = restore_rng(meta["rng_state"])
        model.name = meta.get("name", klass.name)
        model._load_state_dict(arrays, meta)
        if unabsorbed:
            model.graph.extend_in_place(
                validate_event_columns(*(c[absorbed:] for c in columns))
            )
        return model

    @classmethod
    def _from_config(cls, config: dict) -> "EmbeddingMethod":
        """Construct an untrained instance from :meth:`_config_dict` output."""
        return cls(**config)

    def _config_dict(self) -> dict:
        """Subclass hook: JSON-serializable constructor kwargs."""
        raise NotImplementedError(f"{type(self).__name__} lacks _config_dict")

    def _state_dict(self) -> tuple[dict, dict]:
        """Subclass hook: ``(arrays, meta)`` capturing all trained state."""
        raise NotImplementedError(f"{type(self).__name__} lacks _state_dict")

    def _load_state_dict(self, arrays: dict, meta: dict) -> None:
        """Subclass hook: restore trained state (``self.graph`` and
        ``self._rng`` are already in place when this runs)."""
        raise NotImplementedError(f"{type(self).__name__} lacks _load_state_dict")


def _find_method_class(name: str):
    """Locate the concrete :class:`EmbeddingMethod` subclass called ``name``."""
    # Checkpoints may be loaded before the method modules were imported;
    # pull in the standard roster so __subclasses__ can see it.
    import repro.baselines  # noqa: F401
    import repro.core.model  # noqa: F401

    stack = list(EmbeddingMethod.__subclasses__())
    while stack:
        klass = stack.pop()
        if klass.__name__ == name:
            return klass
        stack.extend(klass.__subclasses__())
    return None
