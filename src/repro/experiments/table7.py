"""Table VII — ablation study (EHNA vs EHNA-NA / EHNA-RW / EHNA-SL).

Link-prediction F1 under the Weighted-L2 operator, per dataset, exactly as
the paper reports (Section V.F notes Weighted-L2 is shown for space).  A
thin adapter over the task Runner: one single-operator
:class:`~repro.tasks.link_prediction.LinkPredictionTask` grid over every
dataset and variant.
"""

from __future__ import annotations

from repro.core.variants import ABLATION_VARIANTS
from repro.datasets import PAPER_DATASETS
from repro.tasks import LinkPredictionTask, Runner


def run_table7(
    datasets=PAPER_DATASETS,
    scale: float = 0.25,
    dim: int = 32,
    epochs: int = 3,
    seed: int = 0,
    repeats: int = 5,
) -> dict[str, dict[str, float]]:
    """Regenerate Table VII: ``{variant: {dataset: weighted-L2 F1}}``."""
    factories = {
        name: (lambda make=make: make(seed=seed, dim=dim, epochs=epochs))
        for name, make in ABLATION_VARIANTS.items()
    }
    task = LinkPredictionTask(
        fraction=0.2, operators=("Weighted-L2",), repeats=repeats
    )
    runner = Runner(datasets, factories, [task], scale=scale, seed=seed)
    table = runner.run()
    return {
        variant: {
            ds: table.cell(ds, variant, task.name).metrics["Weighted-L2/f1"]
            for ds in runner.datasets
        }
        for variant in ABLATION_VARIANTS
    }


def format_table7(results: dict[str, dict[str, float]]) -> str:
    """Render the variant x dataset F1 grid."""
    datasets = list(next(iter(results.values())))
    lines = ["-- Table VII: ablation (F1, Weighted-L2) --"]
    lines.append(f"{'Variant':10s}" + "".join(f"{d:>10s}" for d in datasets))
    for variant, row in results.items():
        lines.append(f"{variant:10s}" + "".join(f"{row[d]:>10.4f}" for d in datasets))
    return "\n".join(lines)
