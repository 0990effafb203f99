"""Figure 5 — parameter sensitivity of EHNA on the Yelp-like dataset.

Sweeps the safety margin ``m``, walk length ``l`` and the walk-bias
parameters ``p``/``q`` (as ``log2`` grids), measuring link-prediction F1
under Weighted-L2 with everything else at its default — the protocol of
Section V.H.

A thin adapter over the task Runner with the *methods axis* carrying the
configuration sweep: every (panel, value) pair becomes one EHNA factory,
evaluated against a single shared single-operator
:class:`~repro.tasks.link_prediction.LinkPredictionTask` — one holdout
preparation for the whole figure.
"""

from __future__ import annotations

from repro.core import EHNA
from repro.tasks import LinkPredictionTask, Runner

#: The paper's grids (Fig. 5a-d).
DEFAULT_GRIDS = {
    "margin": [1.0, 2.0, 3.0, 4.0, 5.0],
    "walk_length": [1, 5, 10, 15, 20, 25],
    "log2_p": [-2, -1, 0, 1, 2],
    "log2_q": [-2, -1, 0, 1, 2],
}


def _sweep_points(grids: dict) -> list[tuple[str, float, dict]]:
    """(panel, grid value, EHNA overrides) in the legacy sweep order."""
    points: list[tuple[str, float, dict]] = []
    for m in grids["margin"]:
        points.append(("margin", m, {"margin": float(m)}))
    for length in grids["walk_length"]:
        points.append(("walk_length", length, {"walk_length": int(length)}))
    for e in grids["log2_p"]:
        points.append(("log2_p", e, {"p": float(2.0**e)}))
    for e in grids["log2_q"]:
        points.append(("log2_q", e, {"q": float(2.0**e)}))
    return points


def run_fig5(
    dataset: str = "yelp",
    scale: float = 0.2,
    dim: int = 32,
    epochs: int = 2,
    seed: int = 0,
    grids: dict | None = None,
) -> dict[str, dict[float, float]]:
    """Regenerate Fig. 5: ``{panel: {parameter value: F1}}``."""
    grids = {**DEFAULT_GRIDS, **(grids or {})}
    points = _sweep_points(grids)
    methods = {
        f"{panel}={value}": (
            lambda overrides=overrides: EHNA(
                seed=seed, dim=dim, epochs=epochs, **overrides
            )
        )
        for panel, value, overrides in points
    }
    task = LinkPredictionTask(fraction=0.2, operators=("Weighted-L2",), repeats=3)
    table = Runner([dataset], methods, [task], scale=scale, seed=seed).run()

    results: dict[str, dict[float, float]] = {
        "margin": {}, "walk_length": {}, "log2_p": {}, "log2_q": {}
    }
    for panel, value, _ in points:
        cell = table.cell(dataset, f"{panel}={value}", task.name)
        results[panel][value] = cell.metrics["Weighted-L2/f1"]
    return results


def format_fig5(results: dict[str, dict[float, float]]) -> str:
    """Render the four panels as value/F1 rows."""
    lines = ["-- Fig.5: parameter sensitivity (F1, Weighted-L2) --"]
    for panel, curve in results.items():
        lines.append(f"[{panel}]")
        lines.append("  " + "".join(f"{v:>9g}" for v in curve))
        lines.append("  " + "".join(f"{f1:>9.4f}" for f1 in curve.values()))
    return "\n".join(lines)
