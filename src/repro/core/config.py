"""EHNA hyper-parameters.

Defaults marked *paper* follow Section V.C; the remaining defaults are the
laptop-scale settings used by the test-suite and benchmark harnesses (the
graphs here are ~10³ edges rather than the paper's 10⁶, so smaller embedding
and walk budgets converge in seconds without changing the method).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.dtypes import get_precision
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class EHNAConfig:
    """All knobs of the EHNA model and its trainer."""

    dim: int = 32  # paper: 128
    lstm_layers: int = 2  # paper: 2
    num_walks: int = 4  # paper: k = 10
    walk_length: int = 6  # paper: l = 10
    p: float = 0.5  # paper: grid over {0.25..4}, optimum log2 p = -1
    q: float = 2.0  # paper: grid over {0.25..4}, optimum log2 q = 1
    decay: float = 1.0  # Eq. 1 time-decay rate on the [0,1] time scale
    margin: float = 5.0  # paper: m = 5 (Fig. 5a)
    num_negatives: int = 3  # paper: Q = 5
    bidirectional: bool = True  # Eq. 7 (False gives Eq. 6)
    batch_size: int = 32  # paper: 512 (with 10^6-edge graphs)
    epochs: int = 3
    lr: float = 2e-2  # embedding-table learning rate
    # Learning rate of the aggregation network (LSTMs, BN, readout W).  The
    # paper grid-searches tiny rates (2e-5..2e-7, Section V.C) — the network
    # must move much slower than the embeddings or Adam's per-parameter
    # scaling erodes the identity readout before any pairwise signal forms.
    # None = lr / 20.
    network_lr: float | None = None
    # Element-wise gradient clip bound for both parameter groups (embedding
    # table and network); 0 disables clipping (mapped to clip=None — never
    # to a zero bound, which would silently freeze training).
    grad_clip: float = 5.0
    # Ablation switches (Table VII variants flip these).
    use_attention: bool = True
    temporal_walks: bool = True
    two_level: bool = True
    # Feed walks to the LSTM oldest-event-first ("sequence of chronological
    # events", Section IV.B).
    chronological: bool = True
    # Fallback neighborhood for negatives / isolated nodes (Section IV.D):
    # uniform walks this many hops deep, GraphSAGE style.
    fallback_hops: int = 2
    # Clamp for 1/Σt factors in Eq. 3/4 on the [0,1] time scale.
    time_eps: float = 1e-2
    # Noise-distribution exponent P_n(v) ∝ d^power (0 = uniform; ablation).
    negative_power: float = 0.75
    # Loss geometry: "euclidean" (the paper's metric-space argument) or
    # "dot" (the word2vec-style similarity it argues against; ablation).
    objective: str = "euclidean"
    # Fused aggregation kernels: array-native WalkBatch construction in the
    # walk engine plus the single-node BPTT LSTM.  Numerically equivalent to
    # the reference path (Walk objects + batch_walks + stepwise StackedLSTM),
    # which False selects for ablations and the training-math smoke gate.
    fused_kernels: bool = True
    # Data parallelism.  Every training step splits its batch into
    # `parallel_shards` shards: each draws its negatives and walks, runs the
    # aggregation, loss and backward on its own, and the gradients are
    # averaged in shard order into one Adam step.  One shard draws from the
    # model's RNG stream directly; with more, shard i draws from
    # SeedSequence((step_seed, i)), step_seed being one draw from the model
    # stream per step.  `num_workers` only picks where the shards of a fit
    # run: inline (1) or on that many spawn workers attached to a
    # shared-memory graph (>= 2, at most one per shard).  The math never
    # depends on it, so every worker count yields bitwise-equal results.
    # partial_fit always runs inline.
    num_workers: int = 1
    parallel_shards: int = 1
    # Precision policy of the compute substrate (repro.nn.dtypes):
    # "float64" is the bitwise-stable reference mode; "float32" is the fast
    # mode — single-precision parameters/activations/walk batches validated
    # by loosened-tolerance gradchecks and loss/AUC agreement (see
    # docs/architecture.md, "The precision policy").  Anchor timestamps and
    # walk sampling stay float64 in both modes: time is data, not compute.
    precision: str = "float64"

    def validate(self) -> "EHNAConfig":
        """Raise ``ValueError`` on inconsistent settings; return self."""
        check_positive("dim", self.dim)
        check_positive("lstm_layers", self.lstm_layers)
        check_positive("num_walks", self.num_walks)
        check_positive("walk_length", self.walk_length)
        check_positive("p", self.p)
        check_positive("q", self.q)
        check_non_negative("decay", self.decay)
        check_non_negative("margin", self.margin)
        check_positive("num_negatives", self.num_negatives)
        check_positive("batch_size", self.batch_size)
        check_positive("epochs", self.epochs)
        check_positive("lr", self.lr)
        if self.network_lr is not None:
            check_positive("network_lr", self.network_lr)
        check_non_negative("grad_clip", self.grad_clip)
        check_positive("fallback_hops", self.fallback_hops)
        check_positive("time_eps", self.time_eps)
        check_non_negative("negative_power", self.negative_power)
        if self.objective not in ("euclidean", "dot"):
            raise ValueError(
                f"objective must be 'euclidean' or 'dot', got {self.objective!r}"
            )
        check_positive("num_workers", self.num_workers)
        check_positive("parallel_shards", self.parallel_shards)
        if self.num_workers > self.parallel_shards:
            raise ValueError(
                f"num_workers={self.num_workers} exceeds parallel_shards="
                f"{self.parallel_shards}: a worker runs whole shards, so the "
                "extra workers would sit idle"
            )
        # Raises UnknownPrecisionError listing the valid policy names.
        get_precision(self.precision)
        if not self.two_level and self.lstm_layers > 1:
            # EHNA-SL pairs a single-layer LSTM with single-level aggregation.
            raise ValueError("two_level=False requires lstm_layers=1 (EHNA-SL)")
        return self
