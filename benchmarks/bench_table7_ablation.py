"""Table VII — ablation study (Weighted-L2 F1 per dataset).

Paper shape to check: full EHNA >= EHNA-NA >= EHNA-RW >= EHNA-SL — each
removed component (attention, temporal walks, two-level stacked aggregation)
costs accuracy, with the single-level LSTM hurting the most.

``run_table7`` is a thin adapter over the task Runner: a single-operator
``LinkPredictionTask`` grid over every dataset and variant.
"""

from repro.experiments import format_table7, run_table7


def test_table7_ablation(benchmark, save_result):
    results = benchmark.pedantic(
        run_table7,
        kwargs={"scale": 0.12, "epochs": 2, "seed": 0, "repeats": 3},
        rounds=1,
        iterations=1,
    )
    assert set(results) == {"EHNA", "EHNA-NA", "EHNA-RW", "EHNA-SL"}
    for variant, row in results.items():
        assert set(row) == {"digg", "yelp", "tmall", "dblp"}
    save_result("table7_ablation", format_table7(results))
