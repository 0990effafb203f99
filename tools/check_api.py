#!/usr/bin/env python
"""Assert the public protocol surfaces are complete.

Two gates, both wired into ``make test`` via ``make api-check``:

1. **Method protocol (v2)** — every ``EmbeddingMethod`` subclass (see
   ``src/repro/base.py`` and docs/architecture.md) must expose ``fit`` /
   ``embeddings`` / ``encode`` / ``partial_fit`` / ``save`` / ``load``, and
   must override the four checkpoint/streaming hooks the base class leaves
   abstract (``_config_dict``, ``_state_dict``, ``_load_state_dict``,
   ``_apply_partial_fit``).  This keeps a new baseline from silently
   shipping with half a protocol.

2. **Task API (v2)** — every registered task type in
   ``repro.tasks.TASK_TYPES`` must subclass ``Task``, carry a matching
   ``name``, override ``prepare``/``evaluate`` and construct with defaults;
   ``Runner`` and ``ResultTable`` must expose the surface the experiment
   adapters and the CLI are built on.  This keeps a new scenario from
   shipping half a task.

3. **Precision policy** — ``repro.nn.dtypes`` must expose the policy
   surface (``Precision``/``get_precision``/``FLOAT64``/``FLOAT32``), every
   embedding method must accept ``precision="float32"`` at construction and
   report it via ``_precision_name()``, and ``EHNAConfig.validate`` must
   reject unknown precision names.  This keeps a new method (or a config
   regression) from silently ignoring the policy.

4. **Storage backends** — ``repro.storage`` must export the backend seam
   (``GraphStorage``/``ArrayStorage``/``MemmapStorage``/
   ``MemmapStorageWriter`` plus the format constants), both backends must
   implement the column protocol, and ``TemporalGraph`` must keep the
   ``from_storage``/``storage``/``storage_backend`` surface the memmap
   path is built on.  This keeps a new backend (or a graph refactor) from
   shipping half the seam.

5. **Parallelism** — ``repro.storage`` must export the shared-memory
   backend (``SharedMemoryStorage``/``SharedArrayPack``/``PackHandle``),
   ``TemporalGraph`` must keep ``to_shared``/``from_handle``/
   ``shared_handle``, ``repro.parallel`` must export the worker-pool
   surface, ``repro.core`` must export the flat-parameter seam
   (``FlatParams``/``FlatAdam``), ``EHNAConfig`` must carry and validate
   the ``num_workers``/``parallel``/``parallel_shards`` knobs, and the
   SGNS baselines must accept ``num_workers`` end to end.  This keeps a
   refactor from silently stranding the data-parallel path.

6. **Durability** — ``repro.stream`` must export the WAL surface
   (``WriteAheadLog``/``WALRecord`` and the error taxonomy),
   ``OnlineService`` must keep ``checkpoint``/``recover``/``close``, the
   fault-injection helpers in ``repro.utils.faults`` must stay importable
   (the crash-everywhere sweep is built on them), and checkpoints must keep
   the watermark field.  This keeps a serving refactor from silently
   dropping crash recovery.

Run directly; exits non-zero listing every violation.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Public methods every embedding method must expose.
REQUIRED_CALLABLES = (
    "fit",
    "embeddings",
    "embedding_of",
    "encode",
    "partial_fit",
    "save",
    "load",
)

#: Base-class stubs each concrete method must override (directly or via a
#: shared mixin/parent) for partial_fit and save/load to actually work.
REQUIRED_OVERRIDES = (
    "_apply_partial_fit",
    "_config_dict",
    "_state_dict",
    "_load_state_dict",
)


def all_method_classes():
    """Every concrete EmbeddingMethod subclass in the standard roster."""
    import repro.baselines  # noqa: F401 — registers the baselines
    import repro.core  # noqa: F401 — registers EHNA

    from repro.base import EmbeddingMethod

    found = []
    stack = list(EmbeddingMethod.__subclasses__())
    while stack:
        klass = stack.pop()
        stack.extend(klass.__subclasses__())
        if not getattr(klass, "__abstractmethods__", None):
            found.append(klass)
    return sorted(set(found), key=lambda c: c.__name__)


def check_class(klass) -> list[str]:
    from repro.base import EmbeddingMethod

    problems = []
    name = klass.__name__
    if not isinstance(getattr(klass, "name", None), str) or not klass.name:
        problems.append(f"{name}: missing a non-empty .name label")
    for attr in REQUIRED_CALLABLES:
        if not callable(getattr(klass, attr, None)):
            problems.append(f"{name}: missing callable {attr}()")
    for hook in REQUIRED_OVERRIDES:
        if getattr(klass, hook, None) is getattr(EmbeddingMethod, hook):
            problems.append(
                f"{name}: inherits the base-class stub for {hook} — "
                "partial_fit/save/load would raise NotImplementedError"
            )
    try:
        klass()
    except Exception as exc:  # default construction must work for load()
        problems.append(f"{name}: default construction failed: {exc}")
    return problems


#: Task names that must stay registered (the scenarios + timing + streaming).
REQUIRED_TASKS = (
    "link_prediction",
    "reconstruction",
    "node_classification",
    "temporal_ranking",
    "streaming_replay",
    "fit_timing",
)

#: The Runner/ResultTable surface the adapters and the CLI rely on.
RUNNER_CALLABLES = ("run",)
RESULT_TABLE_CALLABLES = (
    "to_markdown",
    "to_json",
    "from_json",
    "row",
    "cell",
    "reduction",
    "metric_names",
    "datasets",
    "methods",
    "tasks",
    "num_fits",
)


def check_task_layer() -> list[str]:
    """Violations of the task-API surface (empty list = clean)."""
    import repro.tasks as tasks
    from repro.tasks.base import Task

    problems = []
    for name in REQUIRED_TASKS:
        if name not in tasks.TASK_TYPES:
            problems.append(f"TASK_TYPES: required task {name!r} is not registered")
    for name, klass in tasks.TASK_TYPES.items():
        label = klass.__name__
        if not issubclass(klass, Task):
            problems.append(f"{label}: not a Task subclass")
            continue
        if klass.name != name:
            problems.append(
                f"{label}: registered as {name!r} but .name is {klass.name!r}"
            )
        for hook in ("prepare", "evaluate"):
            if getattr(klass, hook, None) is getattr(Task, hook):
                problems.append(f"{label}: does not override {hook}()")
        try:
            klass()
        except Exception as exc:  # CLI default construction must work
            problems.append(f"{label}: default construction failed: {exc}")
    for attr in RUNNER_CALLABLES:
        if not callable(getattr(tasks.Runner, attr, None)):
            problems.append(f"Runner: missing callable {attr}()")
    for attr in RESULT_TABLE_CALLABLES:
        if not callable(getattr(tasks.ResultTable, attr, None)):
            problems.append(f"ResultTable: missing callable {attr}()")
    return problems


def check_precision_surface() -> list[str]:
    """Violations of the precision-policy surface (empty list = clean)."""
    problems = []
    try:
        from repro.nn.dtypes import (
            FLOAT32,
            FLOAT64,
            PRECISIONS,
            Precision,
            UnknownPrecisionError,
            get_precision,
        )
    except ImportError as exc:
        return [f"precision: policy module missing pieces: {exc}"]

    for name in ("float64", "float32"):
        if name not in PRECISIONS or not isinstance(PRECISIONS[name], Precision):
            problems.append(f"precision: policy {name!r} is not registered")
    if get_precision("float64") is not FLOAT64 or get_precision("float32") is not FLOAT32:
        problems.append("precision: get_precision does not resolve the registry")
    try:
        get_precision("no-such-policy")
        problems.append("precision: unknown names must raise UnknownPrecisionError")
    except UnknownPrecisionError as exc:
        if "float64" not in str(exc) or "float32" not in str(exc):
            problems.append("precision: the error must list the valid policy names")

    from repro.core import EHNAConfig

    try:
        EHNAConfig(precision="no-such-policy").validate()
        problems.append("precision: EHNAConfig.validate accepted an unknown policy")
    except UnknownPrecisionError:
        pass

    for klass in all_method_classes():
        label = klass.__name__
        try:
            model = klass(precision="float32")
        except Exception as exc:
            problems.append(f"{label}: construction with precision='float32' failed: {exc}")
            continue
        if model._precision_name() != "float32":
            problems.append(
                f"{label}: _precision_name() reports "
                f"{model._precision_name()!r} for a float32 model"
            )
    return problems


#: The repro.stream exports the service examples and docs are built on.
STREAM_EXPORTS = (
    "EventBatch",
    "EventStreamLoader",
    "OnlineService",
    "LatencyTracker",
    "ThroughputTracker",
)

#: Loader/service callables the streaming loop relies on.
LOADER_CALLABLES = ("from_graph", "__iter__", "__len__")
SERVICE_CALLABLES = ("ingest", "absorb", "encode", "stats")

#: The buffered-growth surface TemporalGraph must keep for streaming.
GRAPH_STREAM_CALLABLES = (
    "extend_in_place",
    "compact",
    "take_fresh",
    "copy",
    "pin_time_scale",
)


def check_stream_surface() -> list[str]:
    """Violations of the streaming-layer surface (empty list = clean)."""
    import inspect

    problems = []
    try:
        import repro.stream as stream
    except ImportError as exc:
        return [f"stream: package missing: {exc}"]

    for name in STREAM_EXPORTS:
        if not hasattr(stream, name):
            problems.append(f"stream: repro.stream does not export {name}")
    loader = getattr(stream, "EventStreamLoader", None)
    if loader is not None:
        for attr in LOADER_CALLABLES:
            if not callable(getattr(loader, attr, None)):
                problems.append(f"EventStreamLoader: missing callable {attr}()")
    service = getattr(stream, "OnlineService", None)
    if service is not None:
        for attr in SERVICE_CALLABLES:
            if not callable(getattr(service, attr, None)):
                problems.append(f"OnlineService: missing callable {attr}()")

    from repro.graph.temporal_graph import TemporalGraph

    for attr in GRAPH_STREAM_CALLABLES:
        if not callable(getattr(TemporalGraph, attr, None)):
            problems.append(f"TemporalGraph: missing callable {attr}()")
    for prop in ("pending_events", "compactions", "time_scale"):
        if not isinstance(getattr(TemporalGraph, prop, None), property):
            problems.append(f"TemporalGraph: missing property {prop}")

    # partial_fit(edges=None) is the buffered-graph absorb path the service
    # is built on — the default must stay None.
    from repro.base import EmbeddingMethod

    sig = inspect.signature(EmbeddingMethod.partial_fit)
    edges = sig.parameters.get("edges")
    if edges is None or edges.default is not None:
        problems.append(
            "EmbeddingMethod: partial_fit must accept edges=None "
            "(the buffered-graph absorb path)"
        )
    return problems


#: The repro.storage exports the backend seam is built on.
STORAGE_EXPORTS = (
    "GraphStorage",
    "ArrayStorage",
    "MemmapStorage",
    "MemmapStorageWriter",
    "SharedMemoryStorage",
    "SharedArrayPack",
    "PackHandle",
    "StoreFormatError",
    "validate_event_columns",
    "is_store_dir",
    "COLUMNS",
    "COLUMN_DTYPES",
    "MANIFEST_NAME",
    "FORMAT_NAME",
    "FORMAT_VERSION",
)

#: The column protocol every backend must implement.
BACKEND_CALLABLES = ("column",)
BACKEND_PROPERTIES = ("src", "dst", "time", "weight", "num_events", "num_nodes")

#: The graph-side surface the memmap path is built on.
GRAPH_STORAGE_CALLABLES = ("from_storage",)
GRAPH_STORAGE_PROPERTIES = ("storage", "storage_backend")


def check_storage_surface() -> list[str]:
    """Violations of the storage-backend surface (empty list = clean)."""
    problems = []
    try:
        import repro.storage as storage
    except ImportError as exc:
        return [f"storage: package missing: {exc}"]

    for name in STORAGE_EXPORTS:
        if not hasattr(storage, name):
            problems.append(f"storage: repro.storage does not export {name}")

    for backend_name in ("ArrayStorage", "MemmapStorage", "SharedMemoryStorage"):
        backend = getattr(storage, backend_name, None)
        if backend is None:
            continue
        base = getattr(storage, "GraphStorage", object)
        if not issubclass(backend, base):
            problems.append(f"{backend_name}: not a GraphStorage subclass")
        for attr in BACKEND_CALLABLES:
            if not callable(getattr(backend, attr, None)):
                problems.append(f"{backend_name}: missing callable {attr}()")
        for prop in BACKEND_PROPERTIES:
            if not isinstance(getattr(backend, prop, None), property):
                problems.append(f"{backend_name}: missing property {prop}")
        if not isinstance(getattr(backend, "backend", None), str):
            problems.append(f"{backend_name}: missing backend label")

    writer = getattr(storage, "MemmapStorageWriter", None)
    if writer is not None:
        for attr in ("append", "finalize"):
            if not callable(getattr(writer, attr, None)):
                problems.append(f"MemmapStorageWriter: missing callable {attr}()")

    from repro.graph.temporal_graph import TemporalGraph

    for attr in GRAPH_STORAGE_CALLABLES:
        if not callable(getattr(TemporalGraph, attr, None)):
            problems.append(f"TemporalGraph: missing callable {attr}()")
    for prop in GRAPH_STORAGE_PROPERTIES:
        if not isinstance(getattr(TemporalGraph, prop, None), property):
            problems.append(f"TemporalGraph: missing property {prop}")
    return problems


#: The repro.parallel exports the data-parallel path is built on.
PARALLEL_EXPORTS = (
    "SharedParams",
    "hogwild_train_corpus",
    "shard_pool",
    "spawn_pool",
    "shard_rng",
    "shard_seed_seq",
)

#: The flat-parameter seam workers rebind training state through.
PARAMS_EXPORTS = ("FlatParams", "FlatAdam", "ParamGroup", "ParamSpec")

#: The graph-side surface the shared-memory path is built on.
GRAPH_SHARED_CALLABLES = ("to_shared", "from_handle")

#: Config knobs EHNA's training step and its worker pool key on.
PARALLEL_CONFIG_FIELDS = ("num_workers", "parallel_shards")


def check_parallel_surface() -> list[str]:
    """Violations of the data-parallelism surface (empty list = clean)."""
    import inspect

    problems = []
    try:
        import repro.parallel as parallel
    except ImportError as exc:
        return [f"parallel: package missing: {exc}"]

    for name in PARALLEL_EXPORTS:
        if not hasattr(parallel, name):
            problems.append(f"parallel: repro.parallel does not export {name}")

    import repro.core as core

    for name in PARAMS_EXPORTS:
        if not hasattr(core, name):
            problems.append(f"parallel: repro.core does not export {name}")

    from repro.graph.temporal_graph import TemporalGraph

    for attr in GRAPH_SHARED_CALLABLES:
        if not callable(getattr(TemporalGraph, attr, None)):
            problems.append(f"TemporalGraph: missing callable {attr}()")
    if not isinstance(getattr(TemporalGraph, "shared_handle", None), property):
        problems.append("TemporalGraph: missing property shared_handle")

    from dataclasses import fields

    from repro.core import EHNAConfig

    config_fields = {f.name for f in fields(EHNAConfig)}
    for name in PARALLEL_CONFIG_FIELDS:
        if name not in config_fields:
            problems.append(f"EHNAConfig: missing field {name}")

    # The SGNS engine (and every baseline built on it) must plumb the
    # worker count through to the Hogwild path.
    from repro.baselines.skipgram import SkipGramNS

    sig = inspect.signature(SkipGramNS.train_corpus)
    workers = sig.parameters.get("num_workers")
    if workers is None or workers.default != 1:
        problems.append(
            "SkipGramNS: train_corpus must accept num_workers=1 "
            "(the Hogwild dispatch seam)"
        )
    for klass in all_method_classes():
        if klass.__name__ in ("Node2Vec", "DeepWalk", "CTDNE"):
            try:
                model = klass(num_workers=2)
            except Exception as exc:
                problems.append(
                    f"{klass.__name__}: construction with num_workers=2 "
                    f"failed: {exc}"
                )
                continue
            if getattr(model, "num_workers", None) != 2:
                problems.append(
                    f"{klass.__name__}: constructor does not store num_workers"
                )

    # datasets.load(shared=True) is how benchmark grids request a
    # worker-attachable graph; the kwarg must stay (with its default off).
    from repro.datasets import load

    shared = inspect.signature(load).parameters.get("shared")
    if shared is None or shared.default is not False:
        problems.append("datasets.load: missing shared=False parameter")
    return problems


#: The WAL exports the durability layer is built on.
DURABILITY_STREAM_EXPORTS = (
    "WriteAheadLog",
    "WALRecord",
    "WALError",
    "WALCorruptionError",
)

#: WAL methods recovery and checkpoint pruning rely on.
WAL_CALLABLES = ("append", "records", "rotate", "prune", "sync_now", "close")

#: Service durability methods (recover is a classmethod, checked callable).
SERVICE_DURABILITY_CALLABLES = ("checkpoint", "recover", "close")

#: Fault-harness helpers the crash-everywhere sweep is built on.
FAULT_HELPERS = ("inject", "crash_point", "torn_write", "wrap_file", "active_fault")


def check_durability_surface() -> list[str]:
    """Violations of the crash-safety surface (empty list = clean)."""
    problems = []
    try:
        import repro.stream as stream
    except ImportError as exc:
        return [f"durability: stream package missing: {exc}"]

    for name in DURABILITY_STREAM_EXPORTS:
        if not hasattr(stream, name):
            problems.append(f"durability: repro.stream does not export {name}")
    wal = getattr(stream, "WriteAheadLog", None)
    if wal is not None:
        for attr in WAL_CALLABLES:
            if not callable(getattr(wal, attr, None)):
                problems.append(f"WriteAheadLog: missing callable {attr}()")
        for prop in ("next_seq", "first_seq", "last_seq", "truncated_tail"):
            if not isinstance(getattr(wal, prop, None), property):
                problems.append(f"WriteAheadLog: missing property {prop}")
    service = getattr(stream, "OnlineService", None)
    if service is not None:
        for attr in SERVICE_DURABILITY_CALLABLES:
            if not callable(getattr(service, attr, None)):
                problems.append(f"OnlineService: missing callable {attr}()")
        if not isinstance(getattr(service, "wal", None), property):
            problems.append("OnlineService: missing property wal")

    try:
        from repro.utils import faults
    except ImportError as exc:
        problems.append(f"durability: fault harness missing: {exc}")
        return problems
    for helper in FAULT_HELPERS:
        if not callable(getattr(faults, helper, None)):
            problems.append(f"faults: missing callable {helper}()")
    points = getattr(faults, "SERVICE_INJECTION_POINTS", ())
    if not points or not all(isinstance(p, str) for p in points):
        problems.append(
            "faults: SERVICE_INJECTION_POINTS must enumerate the service's "
            "crash points (the recovery sweep iterates it)"
        )
    if not isinstance(getattr(faults, "InjectedCrash", None), type):
        problems.append("faults: missing InjectedCrash exception type")

    from dataclasses import fields

    from repro.utils.checkpoint import Checkpoint

    if "watermark" not in {f.name for f in fields(Checkpoint)}:
        problems.append(
            "Checkpoint: missing the watermark field recovery resumes from"
        )
    return problems


def main() -> int:
    classes = all_method_classes()
    if len(classes) < 5:
        print(
            f"api-check: expected at least 5 embedding methods, found "
            f"{[c.__name__ for c in classes]}",
            file=sys.stderr,
        )
        return 1
    failures = 0
    for klass in classes:
        problems = check_class(klass)
        if problems:
            failures += 1
            for line in problems:
                print(f"api-check: {line}", file=sys.stderr)
        else:
            print(f"api-check: {klass.__name__} implements the v2 surface")
    task_problems = check_task_layer()
    if task_problems:
        failures += 1
        for line in task_problems:
            print(f"api-check: {line}", file=sys.stderr)
    else:
        print(
            "api-check: task layer complete "
            f"({len(REQUIRED_TASKS)} tasks, Runner, ResultTable)"
        )
    precision_problems = check_precision_surface()
    if precision_problems:
        failures += 1
        for line in precision_problems:
            print(f"api-check: {line}", file=sys.stderr)
    else:
        print(
            "api-check: precision policy complete "
            f"({len(classes)} methods accept float32, config validates)"
        )
    stream_problems = check_stream_surface()
    if stream_problems:
        failures += 1
        for line in stream_problems:
            print(f"api-check: {line}", file=sys.stderr)
    else:
        print(
            "api-check: streaming surface complete "
            "(loader, service, buffered graph growth, absorb path)"
        )
    storage_problems = check_storage_surface()
    if storage_problems:
        failures += 1
        for line in storage_problems:
            print(f"api-check: {line}", file=sys.stderr)
    else:
        print(
            "api-check: storage surface complete "
            "(backend protocol, memmap store + writer, graph seam)"
        )
    parallel_problems = check_parallel_surface()
    if parallel_problems:
        failures += 1
        for line in parallel_problems:
            print(f"api-check: {line}", file=sys.stderr)
    else:
        print(
            "api-check: parallel surface complete "
            "(shared backend, flat params, worker pools, config knobs)"
        )
    durability_problems = check_durability_surface()
    if durability_problems:
        failures += 1
        for line in durability_problems:
            print(f"api-check: {line}", file=sys.stderr)
    else:
        print(
            "api-check: durability surface complete "
            "(WAL, checkpoint watermark, recover, fault harness)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
