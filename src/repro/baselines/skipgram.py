"""Skip-gram with negative sampling (SGNS) — the engine behind the
DeepWalk / Node2Vec / CTDNE baselines.

Given a corpus of node "sentences" (random walks), SGNS learns input vectors
``W_in`` and output vectors ``W_out`` such that co-occurring nodes score high
under ``σ(u·v)`` and sampled noise nodes score low [38].  Training is
vectorized mini-batch SGD in numpy; duplicate indices inside a batch are
handled with ``np.add.at`` so gradients accumulate correctly.
"""

from __future__ import annotations

import numpy as np

from repro.core.trainer import Trainer
from repro.nn.dtypes import get_precision
from repro.utils.alias import AliasTable
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive


def sentences_to_pairs(sentences: list[list[int]], window: int, rng=None) -> np.ndarray:
    """Expand sentences into (center, context) pairs within ``window``.

    The pair list is shuffled so mini-batches mix sentences.
    """
    check_positive("window", window)
    rng = ensure_rng(rng)
    centers: list[int] = []
    contexts: list[int] = []
    for sent in sentences:
        n = len(sent)
        for i, center in enumerate(sent):
            lo = max(0, i - window)
            hi = min(n, i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    centers.append(center)
                    contexts.append(sent[j])
    if not centers:
        raise ValueError("corpus produced no training pairs")
    pairs = np.stack(
        [np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)],
        axis=1,
    )
    rng.shuffle(pairs)
    return pairs


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class SkipGramNS:
    """SGNS trainer over a fixed vocabulary of node ids."""

    def __init__(
        self,
        num_nodes: int,
        dim: int = 32,
        num_negatives: int = 5,
        lr: float = 0.025,
        noise_weights=None,
        clip: float = 5.0,
        seed=None,
        precision: str = "float64",
    ):
        check_positive("num_nodes", num_nodes)
        check_positive("dim", dim)
        check_positive("num_negatives", num_negatives)
        check_positive("lr", lr)
        check_positive("clip", clip)
        rng = ensure_rng(seed)
        self.num_nodes = num_nodes
        self.dim = dim
        self.num_negatives = num_negatives
        self.lr = lr
        self.clip = clip
        # Weight tables follow the shared precision policy; the RNG stream
        # is consumed in float64 and narrowed afterwards, so a float32 model
        # initializes from bitwise the same draws as its float64 twin.
        self.precision = get_precision(precision).name
        self._real = get_precision(precision).real
        bound = 0.5 / dim
        self.w_in = rng.uniform(-bound, bound, size=(num_nodes, dim)).astype(
            self._real, copy=False
        )
        self.w_out = np.zeros((num_nodes, dim), dtype=self._real)
        if noise_weights is None:
            noise_weights = np.ones(num_nodes)
        else:
            noise_weights = np.asarray(noise_weights, dtype=np.float64)
            if noise_weights.shape != (num_nodes,):
                raise ValueError("noise_weights must have one entry per node")
        self._noise = AliasTable(noise_weights)
        self._rng = rng

    def train_pairs(self, pairs: np.ndarray, batch_size: int = 64) -> float:
        """One pass of SGD over (center, context) pairs; returns mean loss.

        Batches stay small by default: within a batch, updates to a repeated
        node accumulate (``np.add.at``), so very large batches over small
        vocabularies would multiply the effective step size and diverge.
        """
        check_positive("batch_size", batch_size)
        total, count = 0.0, 0
        for lo in range(0, pairs.shape[0], batch_size):
            batch = pairs[lo : lo + batch_size]
            total += self._step(batch[:, 0], batch[:, 1]) * batch.shape[0]
            count += batch.shape[0]
        return total / max(count, 1)

    def train_corpus(
        self,
        sentences: list[list[int]],
        window: int = 5,
        epochs: int = 1,
        batch_size: int = 64,
        callbacks=(),
        name: str = "SGNS",
    ) -> list[float]:
        """Train on walk sentences; returns per-epoch mean losses.

        The epoch loop is the shared :class:`~repro.core.trainer.Trainer`;
        every epoch re-expands the corpus into freshly shuffled pairs
        (``epoch_items``), so batching stays randomized without a second
        shuffle pass.
        """
        current: dict = {}

        def epoch_items(epoch, rng):
            current["pairs"] = sentences_to_pairs(sentences, window, rng)
            return np.arange(current["pairs"].shape[0])

        def step(idx):
            batch = current["pairs"][idx]
            return self._step(batch[:, 0], batch[:, 1])

        trainer = Trainer(
            epochs=epochs,
            batch_size=batch_size,
            rng=self._rng,
            callbacks=callbacks,
            shuffle=False,  # sentences_to_pairs already shuffles
            name=name,
        )
        return trainer.run(step, epoch_items=epoch_items)

    def grow(self, num_nodes: int, noise_weights=None) -> None:
        """Extend the vocabulary to ``num_nodes`` ids (streaming updates).

        New input rows are initialized like fresh ones (uniform in
        ``0.5/dim``), new output rows start at zero; existing vectors are
        untouched.  Pass ``noise_weights`` to rebuild the negative-sampling
        table against the grown graph's degrees.
        """
        if num_nodes < self.num_nodes:
            raise ValueError(
                f"cannot shrink vocabulary from {self.num_nodes} to {num_nodes}"
            )
        extra = num_nodes - self.num_nodes
        if extra:
            bound = 0.5 / self.dim
            fresh = self._rng.uniform(-bound, bound, size=(extra, self.dim))
            self.w_in = np.vstack([self.w_in, fresh.astype(self._real, copy=False)])
            self.w_out = np.vstack(
                [self.w_out, np.zeros((extra, self.dim), dtype=self._real)]
            )
            self.num_nodes = num_nodes
        if noise_weights is not None:
            noise_weights = np.asarray(noise_weights, dtype=np.float64)
            if noise_weights.shape != (self.num_nodes,):
                raise ValueError("noise_weights must have one entry per node")
            self._noise = AliasTable(noise_weights)

    def _step(self, centers: np.ndarray, contexts: np.ndarray) -> float:
        b = centers.size
        q = self.num_negatives
        negs = self._noise.sample(self._rng, size=(b, q))

        v = self.w_in[centers]  # (B, d)
        u_pos = self.w_out[contexts]  # (B, d)
        u_neg = self.w_out[negs]  # (B, Q, d)

        s_pos = np.einsum("bd,bd->b", v, u_pos)
        s_neg = np.einsum("bd,bqd->bq", v, u_neg)
        sig_pos = _sigmoid(s_pos)
        sig_neg = _sigmoid(s_neg)

        # dL/ds for L = -log σ(s_pos) - Σ log σ(-s_neg)
        g_pos = sig_pos - 1.0  # (B,)
        g_neg = sig_neg  # (B, Q)

        c = self.clip
        grad_v = np.clip(
            g_pos[:, None] * u_pos + np.einsum("bq,bqd->bd", g_neg, u_neg), -c, c
        )
        grad_u_pos = np.clip(g_pos[:, None] * v, -c, c)
        grad_u_neg = np.clip(g_neg[:, :, None] * v[:, None, :], -c, c)

        lr = self.lr
        np.add.at(self.w_in, centers, -lr * grad_v)
        np.add.at(self.w_out, contexts, -lr * grad_u_pos)
        np.add.at(
            self.w_out, negs.ravel(), -lr * grad_u_neg.reshape(b * q, self.dim)
        )

        with np.errstate(divide="ignore"):
            loss = -np.log(np.clip(sig_pos, 1e-12, None)).sum() - np.log(
                np.clip(1.0 - sig_neg, 1e-12, None)
            ).sum()
        return float(loss) / b

    def embeddings(self) -> np.ndarray:
        """The learned input vectors (the standard word2vec output)."""
        return self.w_in.copy()


def degree_noise_weights(degrees: np.ndarray, power: float = 0.75) -> np.ndarray:
    """The ``d^0.75`` noise distribution shared by all methods (Section IV.D)."""
    check_non_negative("power", power)
    return np.asarray(degrees, dtype=np.float64) ** power


class SGNSCheckpointMixin:
    """Protocol-v2 checkpoint hooks shared by the SGNS-backed methods.

    Hosts expose ``self._model`` (a :class:`SkipGramNS`), ``self.graph`` and
    ``self._rng``, plus a ``_new_model(graph)`` factory; the trained state is
    just the two weight tables.
    """

    _TABLE_KEY = "w_in"

    @classmethod
    def _from_config(cls, config: dict):
        # Checkpoints written while these methods could train Hogwild carry
        # the retired ``num_workers`` key; the loaded model trains serially.
        return cls(**{k: v for k, v in config.items() if k != "num_workers"})

    def _state_dict(self) -> tuple[dict, dict]:
        if self._model is None:
            raise RuntimeError("call fit() before save()")
        arrays = {"w_in": self._model.w_in, "w_out": self._model.w_out}
        return arrays, {"loss_history": getattr(self, "loss_history", [])}

    def _load_state_dict(self, arrays: dict, meta: dict) -> None:
        from repro.utils.checkpoint import CheckpointError

        if self.graph is None:
            raise CheckpointError(f"{type(self).__name__} checkpoint lacks its graph")
        # Init weights come from a throwaway generator (they are overwritten
        # below), so the restored RNG stream stays untouched.
        saved_rng = self._rng
        self._rng = ensure_rng(0)
        self._model = self._new_model(self.graph)
        self._rng = saved_rng
        self._model._rng = saved_rng
        for key in ("w_in", "w_out"):
            if key not in arrays:
                raise CheckpointError(f"checkpoint is missing array {key!r}")
            if arrays[key].shape != getattr(self._model, key).shape:
                raise CheckpointError(
                    f"checkpoint array {key!r} has shape {arrays[key].shape}, "
                    f"expected {getattr(self._model, key).shape}"
                )
            # Loading casts into the model's policy dtype (a no-op when the
            # archive was saved under the same precision).
            setattr(self._model, key, np.asarray(arrays[key], dtype=self._model._real))
        self.loss_history = [float(x) for x in meta.get("loss_history", [])]
