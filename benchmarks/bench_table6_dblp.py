"""Table VI — link prediction on DBLP (co-authorship).
``run_link_table`` is a thin adapter over the task Runner (``repro.tasks``):
one ``LinkPredictionTask`` grid cell per method, each on its own child
generator, so a method's row does not depend on the other methods.
"""

from repro.experiments import format_link_table, run_link_table


def test_table6_link_prediction_dblp(benchmark, save_result):
    table = benchmark.pedantic(
        run_link_table,
        args=("dblp",),
        kwargs={"scale": 0.3, "seed": 0, "repeats": 3},
        rounds=1,
        iterations=1,
    )
    assert set(table) == {"Mean", "Hadamard", "Weighted-L1", "Weighted-L2"}
    save_result("table6_dblp", format_link_table("dblp", table))
