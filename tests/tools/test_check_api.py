"""check_api: the snapshot is current and every kind of drift is reported."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_api  # noqa: E402


def test_live_surface_matches_snapshot_bytes():
    live = check_api.dumps(check_api.render_surface())
    assert live == check_api.SNAPSHOT.read_text(encoding="utf-8")


def test_discovery_scans_source_not_main():
    modules = check_api.discover_modules()
    assert "repro" in modules and "repro.storage" in modules
    assert "repro.tasks.__main__" not in modules


def _config(**fields):
    return {"kind": "class", "members": {}, "fields": fields}


RECORDED = {
    "pkg.fit": {"kind": "function", "signature": "(graph, edges=None)"},
    "pkg.Config": _config(dim={"type": "'int'", "default": "32"},
                          watermark={"type": "'dict'", "default": "None"}),
    "pkg.dropped": {"kind": "function", "signature": "()"},
}


def test_compare_reports_each_drift_on_its_own_line():
    live = {
        "pkg.fit": {"kind": "function", "signature": "(graph, edges=())"},
        "pkg.Config": _config(dim={"type": "'int'", "default": "32"}),
        "pkg.added": {"kind": "function", "signature": "()"},
    }
    lines = check_api.compare(RECORDED, live)
    assert lines == [
        "removed: pkg.Config.fields.watermark",
        "unrecorded export: pkg.added",
        "missing export: pkg.dropped",
        "changed: pkg.fit.signature: (graph, edges=None) -> (graph, edges=())",
    ]
