"""The EHNA model: temporal walks + two-level aggregation + margin loss.

``EHNA.fit(graph)`` replays the network's edge formations in mini-batches.
For every target edge ``(x, y)`` it samples ``k`` temporal walks from each
endpoint (anchored at ``t(x,y)``), aggregates both historical neighborhoods
into ``z_x``/``z_y`` with the two-level attention architecture, draws
degree-biased negatives, and minimizes the (bidirectional) margin loss of
Eq. 7.

Negative nodes are aggregated through the *same* temporal pipeline, anchored
at the same ``t(x,y)`` (their relevance per Definition 2 is judged against a
hypothetical edge at that time); only nodes with no history before the anchor
fall back to the GraphSAGE-style 2-hop uniform sampling of Section IV.D.
Routing every node through one pipeline matters: if negatives came from a
visibly different view (e.g. always the uniform fallback), the loss could be
minimized by discriminating view types instead of node identities — a
shortcut that leaves the embeddings useless downstream.

After training, one additional aggregation anchored at each node's most
recent interaction produces the final embedding table (Section IV.D's
"``e_x = z_x``" step).  That anchor choice is exactly what the v2 protocol
generalizes: ``encode(nodes, at=times)`` runs the same trained aggregator at
*arbitrary* anchors — embedding a node "as of" any moment of its history —
with ``embeddings()`` as the ``at=last_event_time`` special case.
``partial_fit`` appends arriving edges and trains incrementally on them, and
``save``/``load`` checkpoint the full trained state.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from repro.base import EmbeddingMethod, resolve_anchors
from repro.core.aggregation import TwoLevelAggregator, batch_walks
from repro.core.config import EHNAConfig
from repro.core.loss import margin_hinge_loss
from repro.core.negative_sampling import NegativeSampler
from repro.core.params import FlatAdam, FlatParams, ParamGroup
from repro.core.trainer import Trainer, with_verbose
from repro.graph.temporal_graph import TemporalGraph
from repro.nn.dtypes import get_precision
from repro.nn.layers import BatchNorm1d, Embedding
from repro.nn.tensor import concat
from repro.parallel.pool import shard_rng
from repro.utils.checkpoint import CheckpointError
from repro.utils.rng import ensure_rng
from repro.walks.base import Walk
from repro.walks.engine import BatchedWalkEngine
from repro.walks.temporal import TemporalWalker

#: Config keys of the training paths that were folded into one sharded step.
#: A checkpoint carrying them predates the fold; ``_from_config`` drops every
#: unknown key (``candidate_cap`` too, retired with the exact sampler) but
#: only these reset the shard layout.
_FOLDED_TRAINING_KNOBS = frozenset(
    {"one_pass", "dedup_aggregations", "walk_cache_size", "walk_time_buckets", "parallel"}
)


class EHNA(EmbeddingMethod):
    """Embedding via Historical Neighborhoods Aggregation.

    Parameters
    ----------
    config:
        Full hyper-parameter bundle; keyword overrides are applied on top,
        so ``EHNA(dim=64, epochs=10)`` works without building a config.
    seed:
        Seed or generator controlling weights, walks and negative samples.
    callbacks:
        Default :class:`~repro.core.trainer.TrainerCallback` list applied to
        every ``fit``/``partial_fit`` (merged with per-call callbacks).
    """

    name = "EHNA"

    def __init__(
        self, config: EHNAConfig | None = None, seed=None, callbacks=(), **overrides
    ):
        base = config if config is not None else EHNAConfig()
        if overrides:
            base = dataclasses.replace(base, **overrides)
        self.config = base.validate()
        # The precision policy threads one dtype through the embedding table,
        # both LSTM stacks, the walk batches and the train step; anchor
        # timestamps stay float64 (time is data, not compute).
        self._precision = get_precision(self.config.precision)
        self._rng = ensure_rng(seed)
        self.callbacks = tuple(callbacks)
        self.graph: TemporalGraph | None = None
        self._final: np.ndarray | None = None
        self._infer_seed: int = 0
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------
    # construction of graph-bound runtime state
    # ------------------------------------------------------------------
    def _build_sampling(self, graph: TemporalGraph) -> None:
        """(Re)bind the negative sampler and walk engine to ``graph``."""
        cfg = self.config
        self.sampler = NegativeSampler(graph, power=cfg.negative_power)
        # One shared vectorized engine advances every walk family; the
        # temporal walker stays exposed as a thin per-node wrapper over it
        # (and doubles as the temporal_walks ablation switch).
        self.engine = BatchedWalkEngine(
            graph,
            p=cfg.p,
            q=cfg.q,
            decay=cfg.decay,
            real_dtype=self._precision.real,
        )
        self.temporal_walker = (
            TemporalWalker(graph, p=cfg.p, q=cfg.q, decay=cfg.decay, engine=self.engine)
            if cfg.temporal_walks
            else None
        )

    def _build_runtime(self, graph: TemporalGraph, rng=None) -> None:
        """Fresh parameters and graph bindings (``fit`` and ``load`` entry)."""
        cfg = self.config
        rng = self._rng if rng is None else rng
        self.graph = graph
        self.embedding = Embedding(
            graph.num_nodes, cfg.dim, rng, dtype=self._precision.real
        )
        self.aggregator = TwoLevelAggregator(
            cfg.dim,
            cfg.lstm_layers,
            cfg.two_level,
            rng,
            fused=cfg.fused_kernels,
            dtype=self._precision.real,
        )
        self._build_sampling(graph)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, graph: TemporalGraph, verbose: bool = False, callbacks=()) -> "EHNA":
        """Train on ``graph``; records per-epoch mean loss in ``loss_history``.

        ``verbose`` routes epoch reporting through the shared trainer's
        :class:`~repro.core.trainer.VerboseCallback`; ``callbacks`` may add
        early stopping, eval probes, or any other epoch-end hook.
        """
        self._build_runtime(graph)
        self.loss_history = self._train(
            np.arange(graph.num_edges, dtype=np.int64),
            self.config.epochs,
            with_verbose([*self.callbacks, *callbacks], verbose),
            num_workers=self.config.num_workers,
        )
        self._finish_training()
        return self

    def _train(
        self, edge_ids: np.ndarray, epochs: int, callbacks, num_workers: int = 1
    ) -> list[float]:
        """The one training loop of ``fit`` and ``partial_fit``.

        Replays ``edge_ids`` in shuffled mini-batches, one
        :meth:`_train_step` each, and returns the per-epoch mean losses.
        ``num_workers >= 2`` runs the shards of every step on a spawn pool
        (:func:`repro.parallel.trainer.shard_pool`) instead of inline; the
        math is the same either way.
        """
        flat = FlatParams(self._named_parameters())
        opt = self._make_optimizer(flat)
        pool = contextlib.nullcontext()
        if num_workers >= 2:
            from repro.parallel.trainer import shard_pool

            pool = shard_pool(self, flat, num_workers)
        with pool as run_pooled:
            self.aggregator.train()
            trainer = Trainer(
                epochs=epochs,
                batch_size=self.config.batch_size,
                rng=self._rng,
                callbacks=callbacks,
                name=self.name,
            )
            return trainer.run(
                lambda batch: self._train_step(edge_ids[batch], flat, opt, run_pooled),
                num_items=edge_ids.size,
            )

    def _make_optimizer(self, flat: FlatParams) -> FlatAdam:
        """Adam over the flat parameter vector: the embedding table steps at
        ``lr``, the aggregation network at ``network_lr``."""
        cfg = self.config
        network_lr = cfg.network_lr if cfg.network_lr is not None else cfg.lr / 20.0
        clip = cfg.grad_clip if cfg.grad_clip > 0 else None  # 0 = no clipping
        emb = flat.slice_of("embedding")
        groups = [ParamGroup("embedding", emb.start, emb.stop, lr=cfg.lr, clip=clip)]
        if emb.stop < flat.size:
            groups.append(
                ParamGroup("network", emb.stop, flat.size, lr=network_lr, clip=clip)
            )
        return FlatAdam(flat, groups)

    def _train_step(
        self, edge_ids: np.ndarray, flat: FlatParams, opt: FlatAdam, run_pooled=None
    ) -> float:
        """One optimizer step on a batch of target edges; returns its loss.

        The batch is split into ``parallel_shards`` shards, each shard runs
        :meth:`_shard_step`, and :meth:`_reduce_and_step` averages them into
        one Adam step.  A single shard draws from the model stream itself —
        exactly the stream a whole-batch step draws.  With more shards, one
        step seed is drawn from the model stream and shard ``i`` draws from
        ``SeedSequence((step_seed, i))``, so the result does not depend on
        where the shards run: inline, or through ``run_pooled(shards,
        step_seed)`` on a worker pool.
        """
        num_shards = self.config.parallel_shards
        if num_shards == 1:
            results = [self._shard_step(edge_ids, self._rng)]
        else:
            step_seed = int(self._rng.integers(2**63 - 1))
            shards = [
                (s, i)
                for i, s in enumerate(np.array_split(edge_ids, num_shards))
                if s.size
            ]
            if run_pooled is None:
                results = [self._shard_step(s, shard_rng(step_seed, i)) for s, i in shards]
            else:
                results = run_pooled(shards, step_seed)
        return self._reduce_and_step(flat, opt, results)

    def _shard_step(self, edge_ids: np.ndarray, rng) -> dict:
        """Forward and backward of the Eq. 7 loss on one shard of edges.

        Negatives are drawn up front so that positives and every negative
        group share one grouped aggregation — one walk-engine launch, one
        padding, one LSTM kernel, one backward — all anchored at the edge
        times (negatives are judged through the same historical-neighborhood
        pipeline).  The step leaves the model's state untouched: it returns
        its gradient contribution and loss, and batch-norm running
        statistics are only *logged* (``BatchNorm1d.stats_log``) for
        :meth:`_reduce_and_step` to replay, so a worker's shard and an
        inline one leave identical leader state.
        """
        cfg = self.config
        graph = self.graph
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        xs = graph.src[edge_ids]
        ys = graph.dst[edge_ids]
        ts = graph.time[edge_ids]
        b = edge_ids.size
        q = cfg.num_negatives

        neg_x = self.sampler.sample((b, q), rng, exclude_x=xs, exclude_y=ys)
        neg_y = (
            self.sampler.sample((b, q), rng, exclude_x=xs, exclude_y=ys)
            if cfg.bidirectional
            else None
        )
        neg_t = np.repeat(ts, q)
        targets = [xs, ys, neg_x.ravel()]
        anchor = [ts, ts, neg_t]
        if neg_y is not None:
            targets.append(neg_y.ravel())
            anchor.append(neg_t)

        bns = self._batch_norms()
        saved = [(bn.running_mean, bn.running_var) for bn in bns]
        for bn in bns:
            bn.stats_log = []
        try:
            z = self._grouped_aggregate(
                np.concatenate(targets), np.concatenate(anchor), rng=rng
            )
            z_x, z_y = z[0:b], z[b : 2 * b]
            zn_x = z[2 * b : 2 * b + b * q].reshape((b, q, cfg.dim))
            zn_y = (
                z[2 * b + b * q : 2 * b + 2 * b * q].reshape((b, q, cfg.dim))
                if neg_y is not None
                else None
            )
            loss = margin_hinge_loss(
                z_x, z_y, zn_x, cfg.margin, neg_y=zn_y, metric=cfg.objective
            )
            self.embedding.zero_grad()
            self.aggregator.zero_grad()
            loss.backward()
            logs = [bn.stats_log for bn in bns]
        finally:
            for bn, (mean, var) in zip(bns, saved):
                bn.stats_log = None
                bn.running_mean = mean
                bn.running_var = var

        emb_grad = self.embedding.weight.grad
        rows = np.flatnonzero(np.any(emb_grad, axis=1))
        # A parameter the loss did not reach (attention, under the
        # use_attention=False ablation) steps on a zero gradient.
        net_parts = [
            (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
            for p in self.aggregator.parameters()
        ]
        net = np.concatenate(net_parts) if net_parts else np.zeros(0, emb_grad.dtype)
        return {
            "rows": rows,
            "emb": emb_grad[rows].copy(),
            "net": net,
            "bn": logs,
            "loss": float(loss.item()),
            "count": int(b),
        }

    def _reduce_and_step(self, flat: FlatParams, opt: FlatAdam, results: list) -> float:
        """Shard-order weighted gradient average, batch-norm replay, and one
        Adam step; returns the batch loss."""
        total = sum(r["count"] for r in results)
        grad = np.zeros(flat.size, dtype=flat.dtype)
        emb_sl = flat.slice_of("embedding")
        emb_view = grad[emb_sl].reshape(self.embedding.weight.data.shape)
        bns = self._batch_norms()
        loss = 0.0
        for r in results:
            w = r["count"] / total
            emb_view[r["rows"]] += w * r["emb"]
            grad[emb_sl.stop :] += w * r["net"]
            for bn, entries in zip(bns, r["bn"]):
                for mean, var in entries:
                    bn.running_mean = (
                        (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
                    )
                    bn.running_var = (
                        (1 - bn.momentum) * bn.running_var + bn.momentum * var
                    )
            loss += w * r["loss"]
        opt.step(grad)
        return loss

    def _finish_training(self) -> None:
        """Re-aggregate the final table and seed the inference stream."""
        self._final = self._final_embeddings()
        self._infer_seed = int(self._rng.integers(2**63 - 1))

    def _aggregate(self, targets: np.ndarray, walk_sets, use_attention: bool):
        cfg = self.config
        batch = batch_walks(
            walk_sets,
            self.graph.scale_time,
            chronological=cfg.chronological,
            merge=not cfg.two_level,
            real_dtype=self._precision.real,
        )
        return self._aggregate_batch(targets, batch, use_attention)

    def _aggregate_batch(self, targets: np.ndarray, batch, use_attention: bool):
        """One aggregator launch over an already padded :class:`WalkBatch`."""
        return self.aggregator(
            self.embedding,
            targets,
            batch,
            use_attention=use_attention,
            time_eps=self.config.time_eps,
        )

    def _grouped_aggregate(self, nodes, times, include_context: bool = False, rng=None):
        """Aggregate every node through the appropriate pipeline, in order.

        Nodes with historical interactions before their anchor time go
        through the temporal walk + attention path; the rest (and everything
        when ``temporal_walks=False``, the EHNA-RW ablation) go through
        uniform walks without attention.  ``times`` is a float anchor array
        (``NaN`` forces the fallback) or an aligned sequence whose ``None``
        entries mean the same.  Returns a ``(len(nodes), dim)`` tensor whose
        rows line up with ``nodes``.

        Walk generation is batched: one lockstep engine call samples the
        temporal walks of every eligible node, and a second covers the
        uniform fallback/ablation walks.  With ``fused_kernels`` the engine
        emits padded :class:`WalkBatch` arrays directly (no ``Walk`` objects,
        no Python re-padding); the reference path builds ``Walk`` sets and
        pads them with :func:`batch_walks`.  Both paths consume the RNG
        stream identically and feed the aggregator bitwise-identical arrays.

        ``rng`` defaults to the training stream; inference paths pass their
        own generator so serving queries never perturb training
        reproducibility.
        """
        rng = self._rng if rng is None else rng
        nodes = np.asarray(nodes, dtype=np.int64)
        anchors = _anchor_array(times, nodes.size)
        cfg = self.config
        eligible = (
            ~np.isnan(anchors)
            if self.temporal_walker is not None
            else np.zeros(nodes.size, dtype=bool)
        )
        elig_idx = np.flatnonzero(eligible)
        static_mask = ~eligible

        temporal_idx = np.empty(0, dtype=np.int64)
        temporal_batch = None
        temporal_sets: list[list[Walk]] = []
        if elig_idx.size:
            if cfg.fused_kernels:
                batch = self.engine.temporal_walk_batch(
                    nodes[elig_idx],
                    anchors[elig_idx],
                    cfg.num_walks,
                    cfg.walk_length,
                    rng,
                    include_context=include_context,
                    chronological=cfg.chronological,
                )
                lengths = batch.row_lengths().reshape(elig_idx.size, cfg.num_walks)
                has_history = lengths.max(axis=1) > 1
                temporal_idx = elig_idx[has_history]
                if temporal_idx.size:
                    temporal_batch = batch.take_targets(np.flatnonzero(has_history))
                    if not cfg.two_level:
                        temporal_batch = temporal_batch.merged()
            else:
                sets = self.engine.temporal_walk_sets(
                    nodes[elig_idx],
                    anchors[elig_idx],
                    cfg.num_walks,
                    cfg.walk_length,
                    rng,
                    include_context=include_context,
                )
                has_history = np.fromiter(
                    (any(len(w) > 1 for w in ws) for ws in sets),
                    dtype=bool,
                    count=len(sets),
                )
                temporal_idx = elig_idx[has_history]
                temporal_sets = [s for s, h in zip(sets, has_history) if h]
            # No usable history at the anchor: uniform fallback.
            static_mask[elig_idx[~has_history]] = True

        static_idx = np.flatnonzero(static_mask)  # ascending, like the seed
        static_batch = None
        static_sets: list[list[Walk]] = []
        if static_idx.size:
            # EHNA-RW samples full-length static walks for every node; the
            # fallback neighborhood stays shallow (Section IV.D).
            length = (
                cfg.walk_length if self.temporal_walker is None else cfg.fallback_hops
            )
            if cfg.fused_kernels:
                static_batch = self.engine.uniform_walk_batch(
                    nodes[static_idx],
                    cfg.num_walks,
                    length,
                    rng,
                    chronological=cfg.chronological,
                )
                if not cfg.two_level:
                    static_batch = static_batch.merged()
            else:
                static_sets = self.engine.uniform_walk_sets(
                    nodes[static_idx], cfg.num_walks, length, rng
                )

        parts = []
        if temporal_idx.size:
            attention = cfg.use_attention and cfg.temporal_walks
            parts.append(
                self._aggregate_batch(nodes[temporal_idx], temporal_batch, attention)
                if temporal_batch is not None
                else self._aggregate(nodes[temporal_idx], temporal_sets, attention)
            )
        if static_idx.size:
            parts.append(
                self._aggregate_batch(nodes[static_idx], static_batch, False)
                if static_batch is not None
                else self._aggregate(nodes[static_idx], static_sets, False)
            )
        order = np.concatenate([temporal_idx, static_idx])
        stacked = parts[0] if len(parts) == 1 else concat(parts, axis=0)
        # Restore the caller's row order (getitem backward scatter-adds).
        inverse = np.empty(order.size, dtype=np.int64)
        inverse[order] = np.arange(order.size)
        return stacked[inverse]

    # ------------------------------------------------------------------
    # incremental training (protocol v2)
    # ------------------------------------------------------------------
    def _apply_partial_fit(
        self, graph: TemporalGraph, fresh_edge_ids: np.ndarray, epochs: int | None
    ) -> None:
        """Absorb streamed edges: grow the table, train on the fresh events.

        The aggregation network and embedding table continue from their
        trained state (new nodes get freshly initialized rows); the shards
        of every step run inline whatever ``num_workers`` says; optimizer
        moments restart, which for a small incremental batch acts as a mild
        trust region around the converged parameters.  After the incremental
        epochs, the final embedding table is re-aggregated so ``embeddings()``
        and the ``encode`` fast path reflect the extended history.
        """
        if self._final is None:
            raise RuntimeError("call fit() before partial_fit()")
        cfg = self.config
        extra = graph.num_nodes - self.embedding.num_embeddings
        if extra > 0:
            # Initialize only the new rows (Embedding's default bound); the
            # trained rows are kept, not reallocated-and-copied per batch.
            bound = 1.0 / np.sqrt(cfg.dim)
            new_rows = self._rng.uniform(-bound, bound, size=(extra, cfg.dim))
            self.embedding.weight.data = np.concatenate(
                [self.embedding.weight.data, new_rows.astype(self._precision.real)]
            )
            self.embedding.weight.grad = None
            self.embedding.num_embeddings = graph.num_nodes
        self._build_sampling(graph)
        self.loss_history.extend(
            self._train(
                np.asarray(fresh_edge_ids, dtype=np.int64),
                epochs if epochs is not None else 1,
                list(self.callbacks),
            )
        )
        self._finish_training()

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _final_embeddings(self) -> np.ndarray:
        """One aggregation per node anchored at its most recent edge."""
        cfg = self.config
        graph = self.graph
        self.aggregator.eval()
        out = np.zeros((graph.num_nodes, cfg.dim), dtype=self._precision.real)
        nodes = np.arange(graph.num_nodes)
        all_anchors = graph.last_event_times(nodes)  # NaN marks isolated
        for lo in range(0, nodes.size, cfg.batch_size):
            chunk = nodes[lo : lo + cfg.batch_size]
            z = self._grouped_aggregate(
                chunk, all_anchors[lo : lo + cfg.batch_size], include_context=True
            )
            out[chunk] = z.data
        self.aggregator.train()
        return out

    def embeddings(self) -> np.ndarray:
        """The final aggregated embedding per node (Section IV.D)."""
        if self._final is None:
            raise RuntimeError("call fit() before embeddings()")
        return self._final

    def encode(self, nodes, at=None) -> np.ndarray:
        """Embed ``nodes`` as of anchor time(s) ``at`` — batched, on demand.

        Runs the trained aggregator over each node's historical neighborhood
        *up to* its anchor.  ``at=None`` (or an anchor equal to a node's last
        event time) is the ``embeddings()`` special case and returns the
        precomputed final-table row exactly; other anchors aggregate live,
        in ``batch_size`` chunks, with walks drawn from a generator seeded
        once at the end of training — so ``encode`` is deterministic for a
        given query batch and never consumes the training RNG stream.
        """
        if self._final is None:
            raise RuntimeError("call fit() before encode()")
        cfg = self.config
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        anchors = _anchor_array(resolve_anchors(self.graph, nodes, at), nodes.size)
        # at=None resolved to each node's last event time — by definition
        # the table anchor, so reuse it instead of re-querying per node.
        table_anchor = (
            anchors if at is None else self.graph.last_event_times(nodes)
        )

        out = np.empty((nodes.size, cfg.dim), dtype=self._precision.real)
        # NaN == NaN (both "no anchor") and exact float equality: the final
        # table serves the default anchor bitwise; the rest aggregate live.
        fast = (anchors == table_anchor) | (
            np.isnan(anchors) & np.isnan(table_anchor)
        )
        fast_idx = np.flatnonzero(fast)
        live = np.flatnonzero(~fast)
        if fast_idx.size:
            out[fast_idx] = self._final[nodes[fast_idx]]
        if live.size:
            rng = np.random.default_rng(self._infer_seed)
            self.aggregator.eval()
            for lo in range(0, live.size, cfg.batch_size):
                chunk = live[lo : lo + cfg.batch_size]
                z = self._grouped_aggregate(
                    nodes[chunk],
                    anchors[chunk],
                    include_context=True,
                    rng=rng,
                )
                out[chunk] = z.data
            self.aggregator.train()
        return out

    # ------------------------------------------------------------------
    # checkpointing (protocol v2)
    # ------------------------------------------------------------------
    def _config_dict(self) -> dict:
        return dataclasses.asdict(self.config)

    def _precision_name(self) -> str:
        return self._precision.name

    @classmethod
    def _from_config(cls, config: dict) -> "EHNA":
        known = {f.name for f in dataclasses.fields(EHNAConfig)}
        retired = config.keys() - known
        config = {k: v for k, v in config.items() if k in known}
        if retired & _FOLDED_TRAINING_KNOBS and config.get("num_workers", 1) <= 1:
            # Written before the training paths were folded into one step
            # (it still carries knobs retired then).  Its partial_fit always
            # ran the whole-batch step, the one-shard step now; keep that
            # for models that did not train on a pool (num_workers 0 or 1).
            config["num_workers"] = config["parallel_shards"] = 1
        return cls(config=EHNAConfig(**config))

    def _named_parameters(self) -> list:
        """``(name, tensor)`` pairs in the flat-vector layout order.

        The embedding table first, then the aggregator parameters in their
        deterministic ``parameters()`` order — the contract
        :class:`~repro.core.params.FlatParams` and the data-parallel
        trainer's gradient protocol both build on.
        """
        named = [("embedding", self.embedding.weight)]
        named.extend(
            (f"agg/{i}", p) for i, p in enumerate(self.aggregator.parameters())
        )
        return named

    def _batch_norms(self) -> list[BatchNorm1d]:
        """The aggregator's BN layers, in deterministic module order (their
        running statistics live outside ``parameters()``)."""
        return [m for m in self.aggregator.modules() if isinstance(m, BatchNorm1d)]

    def _state_dict(self) -> tuple[dict, dict]:
        if self._final is None:
            raise RuntimeError("call fit() before save()")
        arrays = {
            "embedding": self.embedding.weight.data,
            "final": self._final,
        }
        for i, p in enumerate(self.aggregator.parameters()):
            arrays[f"agg/{i}"] = p.data
        for j, bn in enumerate(self._batch_norms()):
            arrays[f"bn/{j}/mean"] = bn.running_mean
            arrays[f"bn/{j}/var"] = bn.running_var
        meta = {
            "loss_history": self.loss_history,
            "infer_seed": self._infer_seed,
        }
        return arrays, meta

    def _load_state_dict(self, arrays: dict, meta: dict) -> None:
        if self.graph is None:
            raise CheckpointError("EHNA checkpoint is missing its graph")
        # Parameters are overwritten below, so initialize from a throwaway
        # generator — the restored RNG stream continues exactly where the
        # saved model's left off.
        self._build_runtime(self.graph, rng=np.random.default_rng(0))
        _assign(self.embedding.weight.data, arrays, "embedding")
        for i, p in enumerate(self.aggregator.parameters()):
            _assign(p.data, arrays, f"agg/{i}")
        for j, bn in enumerate(self._batch_norms()):
            _assign(bn.running_mean, arrays, f"bn/{j}/mean")
            _assign(bn.running_var, arrays, f"bn/{j}/var")
        # Casting here (not just _assign's in-place copy) covers the final
        # table, which is stored directly rather than copied into a buffer.
        self._final = np.asarray(arrays["final"], dtype=self._precision.real)
        self.loss_history = [float(x) for x in meta.get("loss_history", [])]
        self._infer_seed = int(meta["infer_seed"])


def _anchor_array(times, n: int) -> np.ndarray:
    """Normalize anchor times into a float array; ``None`` becomes ``NaN``.

    Accepts the vectorized form (a float ndarray, e.g. from
    :meth:`TemporalGraph.last_event_times`) as-is and converts legacy
    ``None``-bearing sequences without a per-element branch in callers.
    """
    if isinstance(times, np.ndarray) and times.dtype.kind == "f":
        arr = np.asarray(times, dtype=np.float64)
    else:
        arr = np.array(
            [np.nan if t is None else float(t) for t in times], dtype=np.float64
        )
    if arr.shape != (n,):
        raise ValueError(f"expected {n} anchor times, got shape {arr.shape}")
    return arr


def _assign(dst: np.ndarray, arrays: dict, key: str) -> None:
    """Copy ``arrays[key]`` into ``dst`` in place, validating presence/shape."""
    if key not in arrays:
        raise CheckpointError(f"checkpoint is missing array {key!r}")
    src = arrays[key]
    if src.shape != dst.shape:
        raise CheckpointError(
            f"checkpoint array {key!r} has shape {src.shape}, expected {dst.shape}"
        )
    dst[...] = src
