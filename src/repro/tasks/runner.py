"""The grid Runner: (datasets × methods × tasks) with a trained-model cache.

The paper's Section V is one big grid; the legacy drivers walked fragments
of it with a fresh ``fit()`` per table.  The Runner executes any rectangle
of the grid with

- **one fit per (method, dataset, fit_key)** — tasks declaring the same
  :attr:`~repro.tasks.base.Task.fit_key` (e.g. link prediction and temporal
  ranking over the same holdout) reuse one trained model instead of
  refitting per table;
- **per-cell timing capture** — every cell records its fit (cache-aware)
  and evaluation wall-clock;
- **isolated randomness**: every prepare/evaluate gets a child generator
  derived from ``(seed, dataset, task, method)``, so a cell's numbers do
  not depend on which other cells ran before it.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
from collections.abc import Mapping

import numpy as np

from repro.datasets.registry import load
from repro.graph.temporal_graph import TemporalGraph
from repro.tasks.base import Task, check_same_split
from repro.tasks.results import Cell, ResultTable
from repro.utils.timers import Timer


def cell_rng(seed: int, *labels: str) -> np.random.Generator:
    """A child generator unique to ``(seed, *labels)``.

    Independent streams keyed by *names*, not grid positions: adding or
    reordering datasets/methods/tasks leaves every other cell's stream
    untouched.  The labels are hashed (sha256) into the seed sequence
    because Python's own ``hash`` is salted per process.
    """
    digest = hashlib.sha256("\x1f".join(labels).encode()).digest()[:8]
    child = int.from_bytes(digest, "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), child]))


def _construct(factory, graph: TemporalGraph):
    """Call a method factory, passing the training graph only when the
    factory *requires* exactly one positional argument (e.g. Table VIII's
    LINE budget depends on the edge count).  Zero-arg factories and classes
    whose parameters all have defaults are called bare."""
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):
        return factory()
    required = [
        p
        for p in sig.parameters.values()
        if p.default is inspect.Parameter.empty
        and p.kind
        in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    ]
    if len(required) == 1:
        return factory(graph)
    return factory()


class Runner:
    """Execute a (datasets × methods × tasks) grid; return a ResultTable."""

    def __init__(
        self,
        datasets,
        methods: Mapping[str, callable],
        tasks,
        *,
        scale: float = 0.3,
        seed: int = 0,
        verbose: bool = False,
    ):
        """
        Parameters
        ----------
        datasets:
            Registry names (loaded via ``repro.datasets.load(name, scale,
            seed)``) or a mapping ``{name: TemporalGraph}`` of pre-built
            graphs.
        methods:
            ``{name: factory}``; a factory returns a fresh, unfitted
            :class:`~repro.base.EmbeddingMethod`.  A factory requiring one
            positional argument receives the training graph.
        tasks:
            :class:`~repro.tasks.base.Task` instances; task names must be
            unique within a grid.
        """
        if isinstance(datasets, Mapping):
            self._graphs = dict(datasets)
            self.datasets = list(self._graphs)
        else:
            self._graphs = None
            self.datasets = [str(d) for d in datasets]
        self.methods = dict(methods)
        self.tasks = list(tasks)
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"task names must be unique within a grid, got {names}")
        self.scale = float(scale)
        self.seed = 0 if seed is None else int(seed)
        self.verbose = verbose

    # ------------------------------------------------------------------
    def _load_graph(self, name: str) -> TemporalGraph:
        if self._graphs is not None:
            return self._graphs[name]
        return load(name, scale=self.scale, seed=self.seed)

    def _say(self, message: str) -> None:
        # Progress goes to stderr: the CLI pipes stdout (markdown/JSON).
        if self.verbose:
            print(f"[runner] {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    def run(self) -> ResultTable:
        """Walk the grid (datasets outer, then tasks, then methods)."""
        cells: list[Cell] = []
        for ds_name in self.datasets:
            graph = self._load_graph(ds_name)
            fit_cache: dict = {}  # (method, fit_key) -> (model, seconds)
            for task in self.tasks:
                prep_rng = cell_rng(self.seed, "prepare", ds_name, task.name)
                data = task.prepare(graph, prep_rng)
                for m_name, factory in self.methods.items():
                    key = (m_name, task.fit_key)
                    cached = key in fit_cache
                    if cached:
                        model, fit_seconds = fit_cache[key]
                        check_same_split(task, data, model.graph)
                    else:
                        model = _construct(factory, data.train_graph)
                        with Timer() as t:
                            model.fit(data.train_graph)
                        fit_seconds = t.elapsed
                        fit_cache[key] = (model, fit_seconds)
                    eval_rng = cell_rng(
                        self.seed, "evaluate", ds_name, task.name, m_name
                    )
                    with Timer() as t:
                        metrics = task.evaluate(model, data, eval_rng)
                    cells.append(
                        Cell(
                            dataset=ds_name,
                            method=m_name,
                            task=task.name,
                            metrics=metrics,
                            fit_seconds=fit_seconds,
                            eval_seconds=t.elapsed,
                            fit_cached=cached,
                        )
                    )
                    self._say(
                        f"{ds_name} × {task.name} × {m_name}: "
                        f"fit {fit_seconds:.2f}s"
                        f"{' (cached)' if cached else ''}, "
                        f"eval {t.elapsed:.2f}s"
                    )
        return ResultTable(cells)
