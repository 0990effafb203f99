"""Figure 5 — EHNA parameter sensitivity on the Yelp-like dataset.

Paper shape to check: F1 improves with margin up to m≈5 (5a); walk length
helps up to l≈10-15 then decays (5b); best p around log2 p = -1 (5c) and best
q around log2 q = +1 (5d).

``run_fig5`` is a thin adapter over the task Runner with the methods axis
carrying the configuration sweep (one EHNA factory per grid point).
"""

from repro.experiments import format_fig5, run_fig5

GRIDS = {
    "margin": [1.0, 3.0, 5.0],
    "walk_length": [2, 6, 10, 15],
    "log2_p": [-1, 0, 1],
    "log2_q": [-1, 0, 1],
}


def test_fig5_parameter_sensitivity(benchmark, save_result):
    results = benchmark.pedantic(
        run_fig5,
        kwargs={"scale": 0.12, "epochs": 2, "seed": 0, "grids": GRIDS},
        rounds=1,
        iterations=1,
    )
    assert set(results) == {"margin", "walk_length", "log2_p", "log2_q"}
    for curve in results.values():
        assert all(0.0 <= f1 <= 1.0 for f1 in curve.values())
    save_result("fig5_sensitivity", format_fig5(results))
