"""Future link prediction as a declarative task (Tables III-VI).

A thin task-protocol wrapper over :mod:`repro.eval.link_prediction`: the
protocol, operators and metrics are exactly the legacy harness's.
"""

from __future__ import annotations

import numpy as np

from repro.eval.link_prediction import (
    evaluate_all_operators,
    evaluate_operator,
    prepare_link_prediction,
)
from repro.eval.operators import OPERATORS
from repro.graph.temporal_graph import TemporalGraph
from repro.tasks.base import Task, TaskData
from repro.utils.validation import check_fraction, check_positive


class LinkPredictionTask(Task):
    """Predict held-out future links from embeddings (Section V.E).

    Metrics are keyed ``"<operator>/<metric>"`` (e.g. ``"Hadamard/auc"``)
    so one flat dict carries the whole Table III-VI block for a method.
    """

    name = "link_prediction"

    def __init__(
        self,
        fraction: float = 0.2,
        operators=None,
        repeats: int = 10,
        train_ratio: float = 0.5,
    ):
        check_fraction("fraction", fraction)
        check_positive("repeats", repeats)
        check_fraction("train_ratio", train_ratio)
        if operators is not None:
            unknown = [op for op in operators if op not in OPERATORS]
            if unknown:
                raise ValueError(
                    f"unknown operators {unknown}; expected among {list(OPERATORS)}"
                )
        self.fraction = float(fraction)
        self.operators = None if operators is None else tuple(operators)
        self.repeats = int(repeats)
        self.train_ratio = float(train_ratio)

    @property
    def fit_key(self):
        return ("holdout", self.fraction)

    def prepare(self, graph: TemporalGraph, rng: np.random.Generator) -> TaskData:
        data = prepare_link_prediction(graph, fraction=self.fraction, rng=rng)
        return TaskData(
            train_graph=data.train_graph, payload=data, full_graph=graph
        )

    def evaluate(self, model, data: TaskData, rng) -> dict[str, float]:
        embeddings = model.embeddings()
        if self.operators is None:
            # The all-operators helper iterates OPERATORS in Table II order,
            # which is also the legacy drivers' rng-consumption order.
            per_op = evaluate_all_operators(
                embeddings,
                data.payload,
                train_ratio=self.train_ratio,
                repeats=self.repeats,
                rng=rng,
            )
        else:
            per_op = {
                op: evaluate_operator(
                    embeddings,
                    data.payload,
                    op,
                    train_ratio=self.train_ratio,
                    repeats=self.repeats,
                    rng=rng,
                )
                for op in self.operators
            }
        return {
            f"{op}/{metric}": value
            for op, metrics in per_op.items()
            for metric, value in metrics.items()
        }
