"""Table III — link prediction on Digg (all operators, all methods).

Paper shape to check: EHNA leads most operator/metric rows; temporal methods
(CTDNE, HTNE, EHNA) dominate static LINE/Node2Vec under Hadamard and the
Weighted operators.

``run_link_table`` is a thin adapter over the task Runner (``repro.tasks``):
one ``LinkPredictionTask`` grid cell per method, each on its own child
generator, so a method's row does not depend on the other methods.
"""

from repro.experiments import format_link_table, run_link_table


def test_table3_link_prediction_digg(benchmark, save_result):
    table = benchmark.pedantic(
        run_link_table,
        args=("digg",),
        kwargs={"scale": 0.3, "seed": 0, "repeats": 3},
        rounds=1,
        iterations=1,
    )
    assert set(table) == {"Mean", "Hadamard", "Weighted-L1", "Weighted-L2"}
    for metrics in table.values():
        for row in metrics.values():
            assert 0.0 <= row["EHNA"] <= 1.0
    save_result("table3_digg", format_link_table("digg", table))
