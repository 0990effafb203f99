"""Tables III-VI — link prediction on Digg / Yelp / Tmall / DBLP.

Since the task-API redesign this driver is a thin adapter over the
:class:`~repro.tasks.runner.Runner`: one :class:`LinkPredictionTask` cell
per method, reshaped into the paper's operator-block layout with the
error-reduction column (EHNA vs the best baseline per row).  Every cell
draws from its own child generator, so a method's row does not depend on
which other methods ran beside it.
"""

from __future__ import annotations

from repro.eval.metrics import error_reduction
from repro.eval.operators import OPERATORS
from repro.experiments.methods import default_methods
from repro.tasks import LinkPredictionTask, Runner

#: Which paper table corresponds to which dataset.
TABLE_FOR_DATASET = {
    "digg": "Table III",
    "yelp": "Table IV",
    "tmall": "Table V",
    "dblp": "Table VI",
}

METRICS = ("auc", "f1", "precision", "recall")


def run_link_table(
    dataset: str,
    scale: float = 0.3,
    dim: int = 32,
    methods=None,
    seed: int = 0,
    repeats: int = 5,
) -> dict[str, dict[str, dict[str, float]]]:
    """Regenerate one of Tables III-VI.

    Returns ``{operator: {metric: {method: value, "Error Reduction": er}}}``
    where the error reduction compares EHNA against the best baseline, as in
    the paper's last column.
    """
    factories = methods or default_methods(dim=dim, seed=seed)
    runner = Runner(
        [dataset],
        factories,
        [LinkPredictionTask(fraction=0.2, repeats=repeats)],
        scale=scale,
        seed=seed,
    )
    results = runner.run()

    table: dict[str, dict[str, dict[str, float]]] = {}
    task = LinkPredictionTask.name
    for operator in OPERATORS:
        table[operator] = {}
        for metric in METRICS:
            row = results.row(dataset, task, f"{operator}/{metric}")
            if "EHNA" in row:
                baselines = [v for m, v in row.items() if m != "EHNA"]
                if baselines:
                    row["Error Reduction"] = error_reduction(
                        max(baselines), row["EHNA"]
                    )
            table[operator][metric] = row
    return table


def format_link_table(dataset: str, table: dict) -> str:
    """Render in the paper's operator-block layout."""
    title = TABLE_FOR_DATASET.get(dataset, "Link prediction")
    lines = [f"-- {title} ({dataset}): link prediction --"]
    methods = [m for m in next(iter(table.values()))["auc"] if m != "Error Reduction"]
    header = f"{'Operator':12s} {'Metric':10s}" + "".join(
        f"{m:>10s}" for m in methods
    ) + f"{'ErrRed':>9s}"
    lines.append(header)
    for operator, metrics in table.items():
        for metric, row in metrics.items():
            cells = "".join(f"{row[m]:>10.4f}" for m in methods)
            er = row.get("Error Reduction")
            er_txt = f"{100 * er:>8.1f}%" if er is not None else " " * 9
            lines.append(f"{operator:12s} {metric:10s}{cells}{er_txt}")
    return "\n".join(lines)
