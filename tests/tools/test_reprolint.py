"""reprolint: per-rule fixtures, suppressions, baseline, CLI, self-check.

Every rule gets at least one violating and one clean snippet, exercised
through the real :class:`~tools.reprolint.engine.Engine` over a fixture
tree (so path scoping runs exactly as it does over the repo).  The
acceptance mutations — deleting the fsync in ``utils/checkpoint.py``,
adding ``np.random.rand`` to ``nn/layers.py`` — run over *copies of the
live files*, so the checker is pinned to the real tree's shape, and the
self-check asserts the shipped ``src/`` + ``tests/`` stay finding-free.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import (  # noqa: E402
    Engine,
    Finding,
    load_baseline,
    registered_rule_classes,
    split_by_baseline,
    write_baseline,
)

ALL_RULE_IDS = (
    "RNG001", "DTYPE001", "SEAM001", "DUR001", "API001", "PAR001", "TEST001",
    "EVT001",
)

#: A pytest.ini registering one custom marker, for TEST001 fixtures.
PYTEST_INI = "[pytest]\nmarkers =\n    slow: long-running\n"


def lint_tree(tmp_path: Path, files: dict, paths=None) -> list[Finding]:
    """Write ``files`` under ``tmp_path`` and run the engine over them."""
    for rel, content in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    engine = Engine(tmp_path)
    return engine.check_paths(paths or [tmp_path])


def rule_ids(findings) -> list[str]:
    return [finding.rule_id for finding in findings]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_all_rules_registered():
    ids = [cls.rule_id for cls in registered_rule_classes()]
    assert list(ALL_RULE_IDS) == ids
    for cls in registered_rule_classes():
        assert cls.title and cls.contract  # docs surface is populated


# ---------------------------------------------------------------------------
# RNG001
# ---------------------------------------------------------------------------


def test_rng001_flags_global_sampler(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/foo.py": "import numpy as np\nx = np.random.rand(3)\n",
    })
    assert rule_ids(findings) == ["RNG001"]
    assert findings[0].line == 2
    assert "process-global" in findings[0].message


def test_rng001_flags_unseeded_default_rng(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/foo.py": (
            "import numpy as np\nrng = np.random.default_rng()\n"
        ),
    })
    assert rule_ids(findings) == ["RNG001"]
    assert "seed" in findings[0].message


def test_rng001_flags_direct_import_alias(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/foo.py": (
            "from numpy.random import shuffle\nshuffle([1, 2])\n"
        ),
    })
    assert rule_ids(findings) == ["RNG001"]


def test_rng001_clean_on_seeded_generators(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/foo.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "child = np.random.default_rng(np.random.SeedSequence([1, 2]))\n"
            "gen = np.random.Generator(np.random.PCG64(3))\n"
            "def f(r: np.random.Generator) -> None:\n    r.random(3)\n"
        ),
    })
    assert findings == []


def test_rng001_scoped_to_src(tmp_path):
    findings = lint_tree(tmp_path, {
        "scripts/foo.py": "import numpy as np\nx = np.random.rand(3)\n",
    })
    assert findings == []


# ---------------------------------------------------------------------------
# DTYPE001
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call", ["np.zeros(4)", "np.empty(4)", "np.ones(4)",
                                  "np.arange(4)", "np.full(4, 0.0)"])
def test_dtype001_flags_bare_constructors(tmp_path, call):
    findings = lint_tree(tmp_path, {
        "src/repro/nn/foo.py": f"import numpy as np\nx = {call}\n",
    })
    assert rule_ids(findings) == ["DTYPE001"]
    assert findings[0].line == 2


def test_dtype001_clean_with_dtype(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/walks/foo.py": (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.float32)\n"
            "b = np.zeros(4, bool)\n"              # positional dtype
            "c = np.full(4, 1.0, dtype=np.float64)\n"
            "d = np.arange(4, dtype=np.int64)\n"
            "e = np.zeros_like(a)\n"               # dtype-preserving
        ),
    })
    assert findings == []


def test_dtype001_scoped_to_policy_modules(tmp_path):
    # eval/ and tasks/ are outside the precision policy: no finding.
    findings = lint_tree(tmp_path, {
        "src/repro/eval/foo.py": "import numpy as np\nx = np.zeros(4)\n",
        "src/repro/tasks/foo.py": "import numpy as np\nx = np.ones(4)\n",
    })
    assert findings == []


# ---------------------------------------------------------------------------
# SEAM001
# ---------------------------------------------------------------------------


def test_seam001_flags_private_column_reach(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/core/foo.py": (
            "def f(graph):\n"
            "    a = graph._src[0]\n"
            "    b = graph._store.column('dst')\n"
        ),
    })
    assert rule_ids(findings) == ["SEAM001", "SEAM001"]
    assert [finding.line for finding in findings] == [2, 3]


def test_seam001_allows_own_private_attrs_and_seam_modules(tmp_path):
    findings = lint_tree(tmp_path, {
        # A class's own ``self._store`` (the walk cache does this).
        "src/repro/core/cache.py": (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._store = {}\n"
            "    def get(self, k):\n"
            "        return self._store[k]\n"
        ),
        # Inside graph/ the columns are the implementation: allowed.
        "src/repro/graph/foo.py": "def f(g):\n    return g._src.size\n",
        "src/repro/storage/foo.py": "def f(s):\n    return s._time\n",
        # Public accessors are always fine.
        "src/repro/tasks/foo.py": "def f(g):\n    return g.src, g.time\n",
    })
    assert findings == []


# ---------------------------------------------------------------------------
# EVT001
# ---------------------------------------------------------------------------


def test_evt001_flags_event_batch_built_outside_the_gate(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/stream/foo.py": (
            "from repro.storage import EventBatch\n"
            "import repro.storage as storage\n"
            "def f(s, d, t, w):\n"
            "    a = EventBatch(s, d, t, w)\n"
            "    return storage.EventBatch(s, d, t, w)\n"
        ),
        "tests/test_foo.py": (
            "from repro.stream import EventBatch\n"
            "b = EventBatch(src=[0], dst=[1], time=[0.0], weight=[1.0])\n"
        ),
    })
    assert rule_ids(findings) == ["EVT001", "EVT001", "EVT001"]
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/stream/foo.py", 4),
        ("src/repro/stream/foo.py", 5),
        ("tests/test_foo.py", 2),
    ]


def test_evt001_allows_the_gate_and_batches_from_it(tmp_path):
    findings = lint_tree(tmp_path, {
        # The validation gate is the one constructor.
        "src/repro/storage/base.py": (
            "class EventBatch:\n"
            "    def slice(self, lo, hi):\n"
            "        return EventBatch(self.src[lo:hi], self.dst[lo:hi],\n"
            "                          self.time[lo:hi], self.weight[lo:hi])\n"
            "def validate_event_columns(s, d, t, w=None):\n"
            "    return EventBatch(s, d, t, w)\n"
        ),
        # Everyone else asks the gate, and may name the type freely.
        "src/repro/stream/foo.py": (
            "from repro.storage import EventBatch, validate_event_columns\n"
            "def f(s, d, t) -> EventBatch:\n"
            "    batch = validate_event_columns(s, d, t)\n"
            "    assert isinstance(batch, EventBatch)\n"
            "    return batch.slice(0, 1)\n"
        ),
    })
    assert findings == []


# ---------------------------------------------------------------------------
# DUR001
# ---------------------------------------------------------------------------

UNSYNCED_PUBLISH = (
    "import os\n"
    "def publish(tmp, path):\n"
    "    with open(tmp, 'w') as fh:\n"
    "        fh.write('x')\n"
    "        fh.flush()\n"
    "    os.replace(tmp, path)\n"
)

SYNCED_PUBLISH = (
    "import os\n"
    "def publish(tmp, path):\n"
    "    with open(tmp, 'w') as fh:\n"
    "        fh.write('x')\n"
    "        fh.flush()\n"
    "        os.fsync(fh.fileno())\n"
    "    os.replace(tmp, path)\n"
)


def test_dur001_flags_unsynced_replace(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/utils/checkpoint.py": UNSYNCED_PUBLISH,
    })
    assert rule_ids(findings) == ["DUR001"]
    assert findings[0].line == 6


def test_dur001_clean_with_fsync_before_replace(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/utils/checkpoint.py": SYNCED_PUBLISH,
        # Helper whose name carries fsync counts as routing through it.
        "src/repro/storage/store.py": (
            "import os\n"
            "def _fsync_file(fh):\n"
            "    os.fsync(fh.fileno())\n"
            "def publish(tmp, path, fh):\n"
            "    _fsync_file(fh)\n"
            "    os.replace(tmp, path)\n"
        ),
    })
    assert findings == []


def test_dur001_fsync_after_replace_still_flags(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/storage/store.py": (
            "import os\n"
            "def publish(tmp, path):\n"
            "    os.replace(tmp, path)\n"
            "    os.fsync(0)\n"
        ),
    })
    assert rule_ids(findings) == ["DUR001"]
    assert findings[0].line == 3


def test_dur001_scoped_to_durability_files(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/datasets/foo.py": UNSYNCED_PUBLISH,
    })
    assert findings == []


# ---------------------------------------------------------------------------
# API001
# ---------------------------------------------------------------------------


def test_api001_flags_undocumented_export(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/mod.py": (
            "__all__ = ['f', 'C']\n"
            "def f():\n    return 1\n"
            "class C:\n    pass\n"
        ),
    })
    assert rule_ids(findings) == ["API001", "API001"]
    assert {finding.line for finding in findings} == {2, 4}


def test_api001_clean_when_documented_or_unexported(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/mod.py": (
            "__all__ = ['f']\n"
            "def f():\n    '''Documented.'''\n    return 1\n"
            "def _helper():\n    return 2\n"  # not exported: no docstring needed
        ),
    })
    assert findings == []


# ---------------------------------------------------------------------------
# PAR001
# ---------------------------------------------------------------------------


def test_par001_flags_writable_keyword_outside_parallel(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/core/foo.py": (
            "def f(pack):\n"
            "    return pack.array('params', writable=True)\n"
        ),
    })
    assert rule_ids(findings) == ["PAR001"]
    assert findings[0].line == 2
    assert "writable=True" in findings[0].message


def test_par001_flags_flag_flip_and_setflags(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/core/foo.py": (
            "def f(view, flag):\n"
            "    view.flags.writeable = True\n"
            "    view.setflags(write=True)\n"
            "    view.flags.writeable = flag\n"  # dynamic: still a flip
        ),
    })
    assert rule_ids(findings) == ["PAR001", "PAR001", "PAR001"]
    assert [finding.line for finding in findings] == [2, 3, 4]


def test_par001_allows_parallel_package_and_freezing(tmp_path):
    findings = lint_tree(tmp_path, {
        # The worker-pool modules are the sanctioned mutation sites.
        "src/repro/parallel/foo.py": (
            "def f(pack):\n"
            "    return pack.array('w_in', writable=True)\n"
        ),
        # Freezing a view (and asking for the frozen default) is fine
        # anywhere — that's the contract, not a violation of it.
        "src/repro/storage/foo.py": (
            "def f(view, pack):\n"
            "    view.flags.writeable = False\n"
            "    view.setflags(write=False)\n"
            "    return pack.array('params', writable=False)\n"
        ),
    })
    assert findings == []


def test_par001_scoped_to_src(tmp_path):
    findings = lint_tree(tmp_path, {
        "tests/test_foo.py": (
            "def test_x(pack):\n"
            "    assert pack.array('params', writable=True) is not None\n"
        ),
    })
    assert findings == []


# ---------------------------------------------------------------------------
# TEST001
# ---------------------------------------------------------------------------


def test_test001_flags_unregistered_marker(tmp_path):
    findings = lint_tree(tmp_path, {
        "pytest.ini": PYTEST_INI,
        "tests/test_foo.py": (
            "import pytest\n"
            "@pytest.mark.slowish\n"
            "def test_x():\n    pass\n"
        ),
    }, paths=[tmp_path / "tests"])
    assert rule_ids(findings) == ["TEST001"]
    assert "slowish" in findings[0].message


def test_test001_clean_on_registered_and_builtin_marks(tmp_path):
    findings = lint_tree(tmp_path, {
        "pytest.ini": PYTEST_INI,
        "tests/test_foo.py": (
            "import pytest\n"
            "@pytest.mark.slow\n"
            "@pytest.mark.parametrize('x', [1])\n"
            "def test_x(x):\n    pass\n"
        ),
    }, paths=[tmp_path / "tests"])
    assert findings == []


def test_test001_silent_without_pytest_ini(tmp_path):
    findings = lint_tree(tmp_path, {
        "tests/test_foo.py": (
            "import pytest\n"
            "@pytest.mark.anything\n"
            "def test_x():\n    pass\n"
        ),
    }, paths=[tmp_path / "tests"])
    assert findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_inline_suppression_silences_one_line(tmp_path):
    engine_files = {
        "src/repro/foo.py": (
            "import numpy as np\n"
            "x = np.random.rand(3)  # reprolint: disable=RNG001\n"
            "y = np.random.rand(3)\n"
        ),
    }
    for rel, content in engine_files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    engine = Engine(tmp_path)
    findings = engine.check_paths([tmp_path])
    assert rule_ids(findings) == ["RNG001"]
    assert findings[0].line == 3
    assert engine.suppressed_count == 1


def test_file_level_suppression_and_disable_all(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/a.py": (
            "# reprolint: disable-file=RNG001\n"
            "import numpy as np\n"
            "x = np.random.rand(3)\n"
        ),
        "src/repro/nn/b.py": (
            "import numpy as np\n"
            "x = np.zeros(3)  # reprolint: disable=all\n"
        ),
    })
    assert findings == []


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/foo.py": "import numpy as np\nx = np.random.rand(3)\n",
    })
    assert len(findings) == 1
    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, baseline_path)
    reloaded = load_baseline(baseline_path)
    assert [finding.key for finding in reloaded] == [
        finding.key for finding in findings
    ]
    fresh, matched = split_by_baseline(findings, reloaded)
    assert fresh == [] and len(matched) == 1


def test_baseline_matching_ignores_lines_but_counts_duplicates(tmp_path):
    one = lint_tree(tmp_path, {
        "src/repro/foo.py": "import numpy as np\nx = np.random.rand(3)\n",
    })
    # The same violation moved down a line still matches the baseline...
    two = lint_tree(tmp_path, {
        "src/repro/foo.py": (
            "import numpy as np\n\n\nx = np.random.rand(3)\n"
        ),
    })
    fresh, matched = split_by_baseline(two, one)
    assert fresh == [] and len(matched) == 1
    # ...but a *second* identical violation exceeds the baseline budget.
    doubled = lint_tree(tmp_path, {
        "src/repro/foo.py": (
            "import numpy as np\n"
            "x = np.random.rand(3)\n"
            "y = np.random.rand(3)\n"
        ),
    })
    fresh, matched = split_by_baseline(doubled, one)
    assert len(fresh) == 1 and len(matched) == 1


def test_shipped_baseline_is_empty():
    shipped = load_baseline(REPO_ROOT / "tools" / "reprolint" / "baseline.json")
    assert shipped == []


# ---------------------------------------------------------------------------
# self-check and acceptance mutations over the live tree
# ---------------------------------------------------------------------------


def test_live_tree_is_clean():
    engine = Engine(REPO_ROOT)
    findings = engine.check_paths(["src", "tests"])
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in findings
    )
    assert engine.files_checked > 100  # the walk really covered the tree


def _copy_into(tmp_path: Path, rel: str, content: str) -> Path:
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content)
    return target


def test_deleting_checkpoint_fsync_is_caught(tmp_path):
    rel = "src/repro/utils/checkpoint.py"
    source = (REPO_ROOT / rel).read_text()
    assert "os.fsync(fh.fileno())" in source
    mutated = source.replace("os.fsync(fh.fileno())", "pass", 1)
    _copy_into(tmp_path, rel, mutated)
    findings = Engine(tmp_path).check_paths([tmp_path / "src"])
    assert rule_ids(findings) == ["DUR001"]
    expected_line = next(
        i for i, text in enumerate(mutated.splitlines(), start=1)
        if "os.replace(tmp, path)" in text
    )
    assert findings[0].line == expected_line


def test_adding_global_rng_to_layers_is_caught(tmp_path):
    rel = "src/repro/nn/layers.py"
    mutated = (REPO_ROOT / rel).read_text() + "\nBAD_DRAW = np.random.rand(3)\n"
    _copy_into(tmp_path, rel, mutated)
    findings = Engine(tmp_path).check_paths([tmp_path / "src"])
    assert rule_ids(findings) == ["RNG001"]
    expected_line = next(
        i for i, text in enumerate(mutated.splitlines(), start=1)
        if "BAD_DRAW" in text
    )
    assert findings[0].line == expected_line


def test_unfreezing_a_shared_view_in_core_is_caught(tmp_path):
    rel = "src/repro/core/model.py"
    mutated = (REPO_ROOT / rel).read_text() + (
        "\ndef _leak(pack):\n    return pack.array('params', writable=True)\n"
    )
    _copy_into(tmp_path, rel, mutated)
    findings = Engine(tmp_path).check_paths([tmp_path / "src"])
    assert rule_ids(findings) == ["PAR001"]
    expected_line = next(
        i for i, text in enumerate(mutated.splitlines(), start=1)
        if "writable=True" in text
    )
    assert findings[0].line == expected_line


def test_unparseable_file_reports_parse_finding(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/broken.py": "def f(:\n",
    })
    assert rule_ids(findings) == ["E000"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *argv],
        cwd=cwd, capture_output=True, text=True,
    )


def test_cli_exit_codes_and_text_format(tmp_path):
    _copy_into(
        tmp_path, "src/repro/foo.py",
        "import numpy as np\nx = np.random.rand(3)\n",
    )
    dirty = run_cli("--root", str(tmp_path), "--no-baseline", "src")
    assert dirty.returncode == 1
    assert "src/repro/foo.py:2: RNG001" in dirty.stdout

    (tmp_path / "src/repro/foo.py").write_text(
        "import numpy as np\nrng = np.random.default_rng(7)\n"
    )
    clean = run_cli("--root", str(tmp_path), "--no-baseline", "src")
    assert clean.returncode == 0
    assert "OK" in clean.stdout


def test_cli_json_report_and_output_file(tmp_path):
    _copy_into(
        tmp_path, "src/repro/foo.py",
        "import numpy as np\nx = np.random.rand(3)\n",
    )
    out = tmp_path / "report" / "lint.json"
    proc = run_cli(
        "--root", str(tmp_path), "--no-baseline",
        "--format", "json", "--output", str(out), "src",
    )
    assert proc.returncode == 1
    payload = json.loads(out.read_text())
    assert payload["version"] == 1
    assert payload["summary"]["findings"] == 1
    assert payload["summary"]["by_rule"] == {"RNG001": 1}
    assert payload["findings"][0]["rule"] == "RNG001"
    assert payload["findings"][0]["line"] == 2


def test_cli_write_baseline_then_pass(tmp_path):
    _copy_into(
        tmp_path, "src/repro/foo.py",
        "import numpy as np\nx = np.random.rand(3)\n",
    )
    baseline = tmp_path / "baseline.json"
    wrote = run_cli(
        "--root", str(tmp_path), "--baseline", str(baseline),
        "--write-baseline", "src",
    )
    assert wrote.returncode == 0 and baseline.exists()
    gated = run_cli(
        "--root", str(tmp_path), "--baseline", str(baseline), "src"
    )
    assert gated.returncode == 0
    assert "1 baselined" in gated.stdout


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ALL_RULE_IDS:
        assert rule_id in proc.stdout


def test_cli_default_invocation_is_clean_on_the_repo():
    # The acceptance command: `python -m tools.reprolint src tests` exits 0.
    proc = run_cli("src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr
