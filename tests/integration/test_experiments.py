"""Tests for the table/figure experiment drivers (tiny scales)."""

import numpy as np
import pytest

from repro.baselines import LINE, Node2Vec
from repro.core import EHNA
from repro.datasets import load
from repro.eval.reconstruction import reconstruction_precision
from repro.experiments import (
    format_fig4,
    format_fig5,
    format_link_table,
    format_table1,
    format_table7,
    format_table8,
    run_fig4,
    run_fig5,
    run_link_table,
    run_table1,
    run_table7,
    run_table8,
)
from repro.utils.rng import ensure_rng

TINY_METHODS = {
    "LINE": lambda: LINE(dim=8, samples_per_edge=5, seed=0),
    "Node2Vec": lambda: Node2Vec(dim=8, num_walks=2, walk_length=8, epochs=1, seed=0),
    "EHNA": lambda: EHNA(dim=8, epochs=1, batch_size=32, num_walks=2,
                         walk_length=3, num_negatives=2, seed=0),
}


def legacy_run_fig4(datasets, scale, ps, methods, seed, repeats):
    """The pre-Runner run_fig4 loop: one generator threaded through the grid."""
    rng = ensure_rng(seed)
    results = {}
    for ds in datasets:
        graph = load(ds, scale=scale, seed=seed)
        per_method = {}
        for name, factory in methods.items():
            model = factory().fit(graph)
            per_method[name] = reconstruction_precision(
                model.embeddings(), graph, list(ps), sample_size=None,
                repeats=repeats, rng=rng,
            )
        results[ds] = per_method
    return results


class TestTable1:
    def test_rows_for_all_datasets(self):
        rows = run_table1(scale=0.05, seed=0)
        assert set(rows) == {"digg", "yelp", "tmall", "dblp"}
        for row in rows.values():
            assert row["# nodes"] > 0
            assert row["# temporal edges"] > 0

    def test_format(self):
        text = format_table1(run_table1(scale=0.05, seed=0))
        assert "# nodes" in text and "dblp" in text


class TestFig4:
    def test_structure(self):
        out = run_fig4(datasets=("dblp",), scale=0.1, ps=(10, 50),
                       methods=TINY_METHODS, seed=0, repeats=1)
        assert set(out) == {"dblp"}
        assert set(out["dblp"]) == set(TINY_METHODS)
        for curve in out["dblp"].values():
            assert set(curve) == {10, 50}
            assert all(0 <= v <= 1 for v in curve.values())

    def test_format(self):
        out = run_fig4(datasets=("dblp",), scale=0.1, ps=(10,),
                       methods=TINY_METHODS, seed=0, repeats=1)
        text = format_fig4(out)
        assert "Fig.4" in text and "P=10" in text

    def test_fig4_bitwise_equivalence(self):
        kwargs = dict(datasets=("dblp", "digg"), scale=0.1, ps=(10, 50),
                      methods={k: TINY_METHODS[k] for k in ("LINE", "Node2Vec")},
                      seed=3, repeats=1)
        assert run_fig4(**kwargs) == legacy_run_fig4(**kwargs)


class TestLinkTables:
    def test_structure_and_error_reduction(self):
        table = run_link_table("digg", scale=0.12, methods=TINY_METHODS,
                               seed=0, repeats=2)
        assert set(table) == {"Mean", "Hadamard", "Weighted-L1", "Weighted-L2"}
        for metrics in table.values():
            for metric in ("auc", "f1", "precision", "recall"):
                row = metrics[metric]
                assert "EHNA" in row
                assert "Error Reduction" in row

    def test_format(self):
        table = run_link_table("digg", scale=0.12, methods=TINY_METHODS,
                               seed=0, repeats=1)
        text = format_link_table("digg", table)
        assert "Table III" in text

    def test_rows_independent_of_method_order(self):
        def table(order):
            methods = {name: TINY_METHODS[name] for name in order}
            return run_link_table("digg", scale=0.1, methods=methods, repeats=2)

        ab = table(("LINE", "Node2Vec"))
        ba = table(("Node2Vec", "LINE"))
        for operator, metrics in ab.items():
            for metric, row in metrics.items():
                for method in ("LINE", "Node2Vec"):
                    assert row[method] == ba[operator][metric][method]


class TestTable7:
    def test_all_variants_all_datasets(self):
        out = run_table7(datasets=("dblp",), scale=0.12, dim=8, epochs=1,
                         seed=0, repeats=1)
        assert set(out) == {"EHNA", "EHNA-NA", "EHNA-RW", "EHNA-SL"}
        for row in out.values():
            assert 0.0 <= row["dblp"] <= 1.0

    def test_format(self):
        out = run_table7(datasets=("dblp",), scale=0.12, dim=8, epochs=1,
                         seed=0, repeats=1)
        assert "Table VII" in format_table7(out)


class TestTable8:
    def test_timings_positive(self):
        out = run_table8(datasets=("dblp",), scale=0.1, dim=8, seed=0)
        assert set(out) == {"Node2Vec", "CTDNE", "LINE", "HTNE", "EHNA"}
        for row in out.values():
            assert row["dblp"] > 0

    def test_format(self):
        out = run_table8(datasets=("dblp",), scale=0.1, dim=8, seed=0)
        assert "Table VIII" in format_table8(out)


class TestFig5:
    def test_panels(self):
        grids = {"margin": [1.0, 5.0], "walk_length": [2],
                 "log2_p": [0], "log2_q": [0]}
        out = run_fig5(scale=0.1, dim=8, epochs=1, seed=0, grids=grids)
        assert set(out) == {"margin", "walk_length", "log2_p", "log2_q"}
        assert set(out["margin"]) == {1.0, 5.0}
        for curve in out.values():
            for f1 in curve.values():
                assert 0.0 <= f1 <= 1.0

    def test_format(self):
        grids = {"margin": [5.0], "walk_length": [2], "log2_p": [0], "log2_q": [0]}
        out = run_fig5(scale=0.1, dim=8, epochs=1, seed=0, grids=grids)
        assert "Fig.5" in format_fig5(out)
