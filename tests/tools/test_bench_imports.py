"""Every ``benchmarks/bench_*.py`` module imports.

The suite collects only ``test_*.py`` files, so nothing else imports the
benchmark modules: a public name they use could be removed from
``src/repro`` and break them unseen.  This imports each one (running no
benchmark).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
MODULES = sorted(BENCH_DIR.glob("bench_*.py"))


def test_benchmark_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"_imported_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
