"""HTNE baseline [14]: Hawkes-process temporal network embedding.

HTNE models *neighborhood formation* as a Hawkes process: the intensity of
node ``x`` acquiring neighbor ``y`` at time ``t`` is a base rate plus
excitation from ``x``'s recent historical neighbors, decayed exponentially::

    λ̃(y|x, t) = -||e_x - e_y||² + (1/|H|) Σ_{(h_i, t_i) ∈ H_x(t)}
                 exp(-δ (t - t_i)) · (-||e_{h_i} - e_y||²)

(the squared-Euclidean "similarity" and per-source decay follow the original
paper; we use uniform history weights — HTNE's non-attention variant — and a
single learnable global decay ``δ``).  Training maximizes the intensity of
observed formations against degree-biased negatives through a sigmoid,
word2vec style.  Only *direct* historical neighbors excite the process —
exactly the limitation (no influence from surrounding non-neighbors) that
EHNA's historical-neighborhood walks remove, as Section II argues.

Gradients are derived in closed form and applied with ``np.add.at``.
"""

from __future__ import annotations

import numpy as np

from repro.base import EmbeddingMethod
from repro.baselines.skipgram import _sigmoid, degree_noise_weights
from repro.core.trainer import Trainer
from repro.nn.dtypes import get_precision
from repro.graph.temporal_graph import TemporalGraph
from repro.utils.alias import AliasTable
from repro.utils.checkpoint import CheckpointError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


class HTNE(EmbeddingMethod):
    """Hawkes-process temporal embedding with closed-form SGD."""

    name = "HTNE"
    _TABLE_KEY = "emb"

    def __init__(
        self,
        dim: int = 32,
        history_length: int = 5,
        num_negatives: int = 5,
        epochs: int = 5,
        batch_size: int = 64,
        lr: float = 0.02,
        init_decay: float = 1.0,
        clip: float = 2.0,
        seed=None,
        precision: str = "float64",
    ):
        check_positive("dim", dim)
        check_positive("history_length", history_length)
        check_positive("num_negatives", num_negatives)
        check_positive("epochs", epochs)
        check_positive("lr", lr)
        check_positive("clip", clip)
        self.dim = dim
        self.history_length = history_length
        self.num_negatives = num_negatives
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.init_decay = init_decay
        self.clip = clip
        self.precision = get_precision(precision).name
        self._real = get_precision(precision).real
        self._rng = ensure_rng(seed)
        self.graph: TemporalGraph | None = None
        self._emb: np.ndarray | None = None
        self.decay: float = init_decay
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------
    def _build_events(self, graph: TemporalGraph, edge_ids=None):
        """Neighborhood-formation events with padded per-source histories.

        Every directed view ``x -> y`` of each edge is an event; its history
        is the (up to ``history_length``) most recent earlier neighbors of
        ``x`` on the [0, 1] time scale.  ``edge_ids`` restricts the event
        construction to a subset of edges (the incremental-training path);
        histories still look back over the *whole* graph.
        """
        h = self.history_length
        times01 = graph.times01()
        events_x, events_y, events_t = [], [], []
        hist_ids, hist_t, hist_mask = [], [], []
        if edge_ids is None:
            edge_ids = range(graph.num_edges)
        for e in edge_ids:
            t_raw = float(graph.time[e])
            t01 = float(times01[e])
            for x, y in ((int(graph.src[e]), int(graph.dst[e])),
                         (int(graph.dst[e]), int(graph.src[e]))):
                nbrs, _times, eids = graph.events_before(x, t_raw, inclusive=False)
                ids = np.zeros(h, dtype=np.int64)
                ts = np.zeros(h, dtype=np.float64)
                mask = np.zeros(h, dtype=np.float64)
                if nbrs.size:
                    take = min(h, nbrs.size)
                    ids[:take] = nbrs[-take:]
                    ts[:take] = times01[eids[-take:]]
                    mask[:take] = 1.0
                events_x.append(x)
                events_y.append(y)
                events_t.append(t01)
                hist_ids.append(ids)
                hist_t.append(ts)
                hist_mask.append(mask)
        return (
            np.asarray(events_x, dtype=np.int64),
            np.asarray(events_y, dtype=np.int64),
            np.asarray(events_t, dtype=np.float64),
            np.stack(hist_ids),
            np.stack(hist_t),
            np.stack(hist_mask),
        )

    def fit(self, graph: TemporalGraph, callbacks=()) -> "HTNE":
        rng = self._rng
        n = graph.num_nodes
        bound = 0.5 / self.dim
        self.graph = graph
        self._emb = rng.uniform(-bound, bound, size=(n, self.dim)).astype(
            self._real, copy=False
        )
        self.decay = float(self.init_decay)
        self.loss_history = self._train_events(graph, None, self.epochs, callbacks)
        return self

    def _train_events(
        self, graph: TemporalGraph, edge_ids, epochs: int, callbacks=()
    ) -> list[float]:
        """Shared-trainer epochs over the (restricted) formation events."""
        rng = self._rng
        noise = AliasTable(degree_noise_weights(graph.degrees()))
        ex, ey, et, hid, ht, hmask = self._build_events(graph, edge_ids)

        def step(idx):
            negs = noise.sample(rng, size=(idx.size, self.num_negatives))
            return self._step(
                self._emb, ex[idx], ey[idx], et[idx],
                hid[idx], ht[idx], hmask[idx], negs,
            )

        trainer = Trainer(
            epochs=epochs,
            batch_size=self.batch_size,
            rng=rng,
            callbacks=callbacks,
            name=self.name,
        )
        return trainer.run(step, num_items=ex.size)

    def _apply_partial_fit(
        self, graph: TemporalGraph, fresh_edge_ids: np.ndarray, epochs: int | None
    ) -> None:
        if self._emb is None:
            raise RuntimeError("call fit() before partial_fit()")
        extra = graph.num_nodes - self._emb.shape[0]
        if extra > 0:
            bound = 0.5 / self.dim
            fresh = self._rng.uniform(-bound, bound, size=(extra, self.dim))
            self._emb = np.vstack([self._emb, fresh.astype(self._real, copy=False)])
        self.loss_history.extend(
            self._train_events(
                graph, fresh_edge_ids, epochs if epochs is not None else 1
            )
        )

    # ------------------------------------------------------------------
    def _intensity_and_grads(self, emb, x, v, t, hid, ht, hmask):
        """λ̃(v|x,t) plus the pieces needed for its gradient.

        Shapes: ``x, t`` are ``(B,)``; ``v`` is ``(B, C)`` candidates
        (positive or negatives); histories are ``(B, H)``.
        """
        b, c = v.shape
        ev = emb[v]  # (B, C, d)
        ext = emb[x][:, None, :]  # (B, 1, d)
        diff_xv = ext - ev  # (B, C, d)
        base = -np.einsum("bcd,bcd->bc", diff_xv, diff_xv)

        kappa = np.exp(-self.decay * (t[:, None] - ht)) * hmask  # (B, H)
        counts = np.maximum(hmask.sum(axis=1, keepdims=True), 1.0)
        w = kappa / counts  # (B, H)
        eh = emb[hid]  # (B, H, d)
        diff_hv = eh[:, :, None, :] - ev[:, None, :, :]  # (B, H, C, d)
        d_hv = np.einsum("bhcd,bhcd->bhc", diff_hv, diff_hv)  # (B, H, C)
        excite = -np.einsum("bh,bhc->bc", w, d_hv)
        lam = base + excite
        return lam, diff_xv, diff_hv, d_hv, w, kappa, counts

    def _step(self, emb, x, y, t, hid, ht, hmask, negs) -> float:
        b = x.size
        cand = np.concatenate([y[:, None], negs], axis=1)  # (B, 1+Q)
        lam, diff_xv, diff_hv, d_hv, w, kappa, counts = self._intensity_and_grads(
            emb, x, cand, t, hid, ht, hmask
        )
        sig = _sigmoid(lam)
        # dL/dλ: positive column wants σ(λ)→1, negatives want σ(λ)→0.
        g = sig.copy()
        g[:, 0] -= 1.0  # (B, C)

        # Gradients of λ w.r.t. embeddings:
        #   ∂base/∂e_x = -2 (e_x - e_v); ∂base/∂e_v = +2 (e_x - e_v)
        #   ∂excite/∂e_h = -2 w (e_h - e_v); ∂excite/∂e_v = +2 w (e_h - e_v)
        grad_x = -2.0 * np.einsum("bc,bcd->bd", g, diff_xv)
        grad_v = 2.0 * np.einsum("bc,bcd->bcd", g, diff_xv) + 2.0 * np.einsum(
            "bc,bh,bhcd->bcd", g, w, diff_hv
        )
        grad_h = -2.0 * np.einsum("bc,bh,bhcd->bhd", g, w, diff_hv)
        # ∂λ/∂δ = Σ_h (-(t - t_h)) κ_h / |H| · (-d_hv)
        dt = (t[:, None] - ht) * hmask
        ddecay = np.einsum("bc,bhc->", g, (dt * kappa / counts)[:, :, None] * d_hv)

        lr, c = self.lr, self.clip
        np.add.at(emb, x, -lr * np.clip(grad_x, -c, c))
        np.add.at(
            emb, cand.ravel(), -lr * np.clip(grad_v.reshape(-1, self.dim), -c, c)
        )
        np.add.at(
            emb, hid.ravel(), -lr * np.clip(grad_h.reshape(-1, self.dim), -c, c)
        )
        self.decay = float(max(self.decay - lr * float(np.clip(ddecay / b, -c, c)), 1e-3))

        with np.errstate(divide="ignore"):
            loss = -np.log(np.clip(sig[:, 0], 1e-12, None)).sum() - np.log(
                np.clip(1.0 - sig[:, 1:], 1e-12, None)
            ).sum()
        return float(loss) / b

    def embeddings(self) -> np.ndarray:
        if self._emb is None:
            raise RuntimeError("call fit() before embeddings()")
        return self._emb.copy()

    # -- checkpointing (protocol v2) -----------------------------------
    def _config_dict(self) -> dict:
        return {
            "dim": self.dim,
            "history_length": self.history_length,
            "num_negatives": self.num_negatives,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "init_decay": self.init_decay,
            "clip": self.clip,
            "precision": self.precision,
        }

    def _state_dict(self) -> tuple[dict, dict]:
        if self._emb is None:
            raise RuntimeError("call fit() before save()")
        return {"emb": self._emb}, {
            "decay": self.decay,
            "loss_history": self.loss_history,
        }

    def _load_state_dict(self, arrays: dict, meta: dict) -> None:
        if "emb" not in arrays:
            raise CheckpointError("checkpoint is missing array 'emb'")
        # Loading casts into the policy dtype (no-op for same-precision saves).
        emb = np.asarray(arrays["emb"], dtype=self._real)
        if emb.ndim != 2 or emb.shape[1] != self.dim:
            raise CheckpointError(
                f"checkpoint array 'emb' has shape {emb.shape}, expected (*, {self.dim})"
            )
        self._emb = emb
        self.decay = float(meta["decay"])
        self.loss_history = [float(x) for x in meta.get("loss_history", [])]
