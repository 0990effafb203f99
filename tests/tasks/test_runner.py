"""Runner grid tests: fit caching, RNG isolation, timing capture."""

import numpy as np
import pytest

from repro.baselines import LINE, Node2Vec
from repro.datasets import load
from repro.tasks import (
    FitTimingTask,
    LinkPredictionTask,
    NodeClassificationTask,
    ReconstructionTask,
    Runner,
    Task,
    TaskData,
    TemporalRankingTask,
)


def counting_line_factory(counter, key="fits"):
    """A LINE factory whose produced models count their fit() calls."""

    def factory():
        model = LINE(dim=8, samples_per_edge=2, seed=0)
        original = model.fit

        def fit(graph):
            counter[key] = counter.get(key, 0) + 1
            return original(graph)

        model.fit = fit
        return model

    return factory


TASKS_TWO_FAMILIES = lambda: [  # noqa: E731 - concise per-test instances
    LinkPredictionTask(repeats=1),
    TemporalRankingTask(num_candidates=4, max_queries=6),
    ReconstructionTask(ps=(10,), repeats=1),
    NodeClassificationTask(repeats=1),
]


class TestFitCache:
    def test_one_fit_per_method_dataset_and_fit_key(self):
        """The acceptance property: 2 datasets x 1 method x 4 tasks runs
        exactly 2 fits per dataset (holdout family + full-graph family)."""
        counter = {}
        runner = Runner(
            ["digg", "dblp"],
            {"LINE": counting_line_factory(counter)},
            TASKS_TWO_FAMILIES(),
            scale=0.08,
            seed=0,
        )
        table = runner.run()
        assert len(table) == 2 * 4
        assert counter["fits"] == 2 * 2  # (holdout, full) x datasets
        assert table.num_fits() == counter["fits"]

    def test_single_task_single_fit(self):
        counter = {}
        runner = Runner(
            ["digg"],
            {"LINE": counting_line_factory(counter)},
            [LinkPredictionTask(repeats=1)],
            scale=0.08,
            seed=0,
        )
        runner.run()
        assert counter["fits"] == 1

    def test_cached_cells_marked(self):
        runner = Runner(
            ["digg"],
            {"LINE": lambda: LINE(dim=8, samples_per_edge=2, seed=0)},
            [
                LinkPredictionTask(repeats=1),
                TemporalRankingTask(num_candidates=4, max_queries=6),
            ],
            scale=0.08,
            seed=0,
        )
        table = runner.run()
        lp = table.cell("digg", "LINE", "link_prediction")
        tr = table.cell("digg", "LINE", "temporal_ranking")
        assert not lp.fit_cached
        assert tr.fit_cached
        assert tr.fit_seconds == lp.fit_seconds  # the one fit's cost

    def test_different_fractions_refit(self):
        counter = {}
        runner = Runner(
            ["digg"],
            {"LINE": counting_line_factory(counter)},
            [
                LinkPredictionTask(fraction=0.2, repeats=1),
                TemporalRankingTask(fraction=0.3, num_candidates=4, max_queries=6),
            ],
            scale=0.08,
            seed=0,
        )
        runner.run()
        assert counter["fits"] == 2


class _LyingTask(Task):
    """Claims the full-graph fit key but prepares a truncated graph."""

    name = "lying"

    def prepare(self, graph, rng):
        train, _ = graph.split_recent(0.5)
        return TaskData(train_graph=train, full_graph=graph)

    def evaluate(self, model, data, rng):
        return {}


class TestFitKeyContract:
    def test_mismatched_split_is_caught(self):
        runner = Runner(
            ["digg"],
            {"LINE": lambda: LINE(dim=8, samples_per_edge=2, seed=0)},
            [ReconstructionTask(ps=(10,), repeats=1), _LyingTask()],
            scale=0.08,
            seed=0,
        )
        with pytest.raises(RuntimeError, match="fit_key"):
            runner.run()


class TestRngIsolation:
    @staticmethod
    def _grid(methods):
        return Runner(
            ["digg"],
            methods,
            [LinkPredictionTask(repeats=2)],
            scale=0.1,
            seed=0,
        ).run()

    def test_cell_mode_is_order_independent(self):
        """A cell's numbers do not depend on which methods ran before it."""
        line = lambda: LINE(dim=8, samples_per_edge=2, seed=0)  # noqa: E731
        n2v = lambda: Node2Vec(  # noqa: E731
            dim=8, num_walks=2, walk_length=6, epochs=1, seed=0
        )
        ab = self._grid({"LINE": line, "Node2Vec": n2v})
        ba = self._grid({"Node2Vec": n2v, "LINE": line})
        for method in ("LINE", "Node2Vec"):
            assert (
                ab.cell("digg", method, "link_prediction").metrics
                == ba.cell("digg", method, "link_prediction").metrics
            )

    def test_cell_mode_deterministic(self):
        line = lambda: LINE(dim=8, samples_per_edge=2, seed=0)  # noqa: E731
        a = self._grid({"LINE": line})
        b = self._grid({"LINE": line})
        assert (
            a.cell("digg", "LINE", "link_prediction").metrics
            == b.cell("digg", "LINE", "link_prediction").metrics
        )


class TestRunnerInputs:
    def test_prebuilt_graph_mapping(self):
        graph = load("digg", scale=0.08, seed=0)
        table = Runner(
            {"toy": graph},
            {"LINE": lambda: LINE(dim=8, samples_per_edge=2, seed=0)},
            [ReconstructionTask(ps=(10,), repeats=1)],
            seed=0,
        ).run()
        assert table.datasets() == ["toy"]
        assert "precision@10" in table.cell("toy", "LINE", "reconstruction").metrics

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Runner(
                ["digg"],
                {},
                [LinkPredictionTask(), LinkPredictionTask(fraction=0.3)],
            )

    def test_graph_aware_factory_receives_train_graph(self):
        seen = {}

        def factory(graph):
            seen["edges"] = graph.num_edges
            return LINE(dim=8, samples_per_edge=2, seed=0)

        graph = load("digg", scale=0.08, seed=0)
        Runner(
            {"toy": graph}, {"LINE": factory}, [FitTimingTask()], seed=0
        ).run()
        assert seen["edges"] == graph.num_edges


class TestTimingCapture:
    def test_fit_and_eval_seconds_recorded(self):
        table = Runner(
            ["digg"],
            {"LINE": lambda: LINE(dim=8, samples_per_edge=2, seed=0)},
            [LinkPredictionTask(repeats=1)],
            scale=0.08,
            seed=0,
        ).run()
        cell = table.cell("digg", "LINE", "link_prediction")
        assert cell.fit_seconds > 0
        assert cell.eval_seconds > 0
