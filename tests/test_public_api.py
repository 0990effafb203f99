"""The public API surface: every exported name resolves and is documented,
and the protocol rosters behave as the method and task layers promise.

Names and signatures are pinned by ``tools/api_surface.json`` (gated by
``tools/check_api.py``); the tests here check what a snapshot cannot: that
the registered methods and tasks construct, override their hooks and honour
the precision and worker knobs.
"""

import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_api  # noqa: E402

MODULES = check_api.discover_modules()


@pytest.mark.parametrize("name", MODULES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for item in mod.__all__:
        assert hasattr(mod, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", MODULES)
def test_module_docstrings(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_top_level_exports():
    import repro

    assert callable(repro.EHNA)
    assert callable(repro.TemporalGraph.from_edges)


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


METHODS = all_method_classes()
#: Named by the package that exports each class, e.g. ``repro.core.EHNA``.
METHOD_IDS = [f"{c.__module__.rpartition('.')[0]}.{c.__name__}" for c in METHODS]
HOOKS = ("_apply_partial_fit", "_config_dict", "_state_dict", "_load_state_dict")


def test_method_roster_is_discovered():
    assert len(METHODS) >= 5, [c.__name__ for c in METHODS]


@pytest.mark.parametrize("cls", METHODS, ids=METHOD_IDS)
def test_methods_implement_protocol(cls):
    """A method carries a result-table label and constructs with defaults
    (``EmbeddingMethod.load`` rebuilds it that way)."""
    from repro.base import EmbeddingMethod

    assert issubclass(cls, EmbeddingMethod)
    assert isinstance(cls.name, str) and cls.name
    assert cls.fit.__doc__ or EmbeddingMethod.fit.__doc__
    cls()


@pytest.mark.parametrize("cls", METHODS, ids=METHOD_IDS)
def test_methods_implement_v2_surface(cls):
    """The four hooks behind partial_fit/save/load are overridden; the
    public v2 signatures themselves are pinned in tools/api_surface.json."""
    from repro.base import EmbeddingMethod

    for hook in HOOKS:
        assert getattr(cls, hook) is not getattr(EmbeddingMethod, hook), (
            f"{cls.__name__} inherits the base-class stub for {hook}"
        )


@pytest.mark.parametrize("cls", METHODS, ids=METHOD_IDS)
def test_methods_honour_float32_precision(cls):
    assert cls(precision="float32")._precision_name() == "float32"


REQUIRED_TASKS = (
    "link_prediction",
    "reconstruction",
    "node_classification",
    "temporal_ranking",
    "streaming_replay",
    "fit_timing",
)


def test_task_registry_holds_required_tasks():
    from repro.tasks import TASK_TYPES

    assert set(REQUIRED_TASKS) <= set(TASK_TYPES)


@pytest.mark.parametrize("name", REQUIRED_TASKS)
def test_tasks_implement_protocol(name):
    from repro.tasks import TASK_TYPES
    from repro.tasks.base import Task

    cls = TASK_TYPES[name]
    assert issubclass(cls, Task)
    assert cls.name == name
    for hook in ("prepare", "evaluate"):
        assert getattr(cls, hook) is not getattr(Task, hook), f"{name} lacks {hook}"
    cls()  # the CLI constructs tasks with defaults


def test_precision_registry_resolves_and_rejects():
    from repro.core import EHNAConfig
    from repro.nn.dtypes import (
        FLOAT32,
        FLOAT64,
        UnknownPrecisionError,
        get_precision,
    )

    assert get_precision("float64") is FLOAT64
    assert get_precision("float32") is FLOAT32
    with pytest.raises(UnknownPrecisionError) as info:
        get_precision("no-such-policy")
    assert "float64" in str(info.value) and "float32" in str(info.value)
    with pytest.raises(UnknownPrecisionError):
        EHNAConfig(precision="no-such-policy").validate()


@pytest.mark.parametrize(
    "backend", ["ArrayStorage", "MemmapStorage", "SharedMemoryStorage"]
)
def test_storage_backends_share_the_seam(backend):
    import repro.storage as storage

    cls = getattr(storage, backend)
    assert issubclass(cls, storage.GraphStorage)
    assert isinstance(cls.backend, str) and cls.backend


def test_fault_injection_points_enumerated():
    from repro.utils import faults

    points = faults.SERVICE_INJECTION_POINTS
    assert isinstance(points, tuple) and points
    assert all(isinstance(p, str) for p in points)
    assert isinstance(faults.InjectedCrash, type)


def test_check_api_tool_passes():
    """The make-test gate itself agrees the surface matches its snapshot."""
    import subprocess

    out = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_api.py")],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
