"""EHNA core: attention, aggregation, loss, negative sampling, model."""

from repro.core.aggregation import TwoLevelAggregator, WalkBatch
from repro.core.attention import (
    masked_softmax,
    node_attention,
    uniform_attention,
    walk_attention,
    walk_factors,
)
from repro.core.config import EHNAConfig
from repro.core.loss import margin_hinge_loss
from repro.core.model import EHNA
from repro.core.negative_sampling import NegativeSampler
from repro.core.params import FlatAdam, FlatParams, ParamGroup, ParamSpec
from repro.core.trainer import (
    EarlyStopping,
    LambdaCallback,
    Trainer,
    TrainerCallback,
    TrainState,
    VerboseCallback,
)
from repro.core.variants import (
    ABLATION_VARIANTS,
    ehna_full,
    ehna_na,
    ehna_rw,
    ehna_sl,
)

__all__ = [
    "EHNA",
    "EHNAConfig",
    "TwoLevelAggregator",
    "WalkBatch",
    "node_attention",
    "walk_attention",
    "walk_factors",
    "masked_softmax",
    "uniform_attention",
    "margin_hinge_loss",
    "NegativeSampler",
    "FlatParams",
    "FlatAdam",
    "ParamGroup",
    "ParamSpec",
    "Trainer",
    "TrainState",
    "TrainerCallback",
    "VerboseCallback",
    "EarlyStopping",
    "LambdaCallback",
    "ABLATION_VARIANTS",
    "ehna_full",
    "ehna_na",
    "ehna_rw",
    "ehna_sl",
]
