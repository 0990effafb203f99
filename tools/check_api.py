#!/usr/bin/env python
"""Gate the public surface against a checked-in snapshot.

``__all__`` is the only declaration of what ``repro`` exports.  This tool
finds every ``src/repro`` module that assigns ``__all__`` (by scanning the
source, so nothing else is imported), renders each export as a JSON record
and compares the rendering with ``tools/api_surface.json``.  A function
records its ``inspect.signature``; a class its public and dunder methods
with their signatures, its properties and its dataclass fields; anything
else its type, plus its value (literals) or keys (dicts).  Only class
members written in ``src/repro`` count, so nothing inherited from
``object``/``Exception`` or generated by ``dataclasses`` makes the record
depend on the Python version.

``python tools/check_api.py`` (``make api-check``) exits 1 with one line
per difference.  After an intended surface change, re-record with
``python tools/check_api.py --update`` (``make api-snapshot``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SNAPSHOT = ROOT / "tools" / "api_surface.json"
sys.path.insert(0, str(SRC))

_ASSIGNS_ALL = re.compile(r"^__all__\s*(:[^=\n]*)?=", re.MULTILINE)
_LITERALS = (str, int, float, bool, tuple)


def discover_modules() -> list[str]:
    """Dotted names of every ``src/repro`` module that assigns ``__all__``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if _ASSIGNS_ALL.search(path.read_text(encoding="utf-8")):
            parts = path.relative_to(SRC).with_suffix("").parts
            found.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return sorted(found)


def _written_in_repro(fn) -> bool:
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return code is not None and Path(code.co_filename).resolve().is_relative_to(SRC)


def _field(f: dataclasses.Field) -> dict:
    record = {"type": inspect.formatannotation(f.type)}
    if f.default is not dataclasses.MISSING:
        record["default"] = repr(f.default)
    elif f.default_factory is not dataclasses.MISSING:
        record["default"] = f"<factory {f.default_factory.__qualname__}>"
    return record


def render_class(cls: type) -> dict:
    """Methods, properties and dataclass fields that ``repro`` code defines."""
    members, seen = {}, set()
    for klass in cls.__mro__:
        if klass.__module__.split(".")[0] != "repro":
            continue
        for name, attr in vars(klass).items():
            dunder = name.startswith("__") and name.endswith("__")
            if name in seen or (name.startswith("_") and not dunder):
                continue
            seen.add(name)
            if isinstance(attr, (property, functools.cached_property)):
                members[name] = "<property>"
            elif _written_in_repro(getattr(attr, "__func__", attr)):
                members[name] = str(inspect.signature(getattr(cls, name)))
    record = {"kind": "class", "members": members}
    if dataclasses.is_dataclass(cls):
        record["fields"] = {f.name: _field(f) for f in dataclasses.fields(cls)}
    return record


def render_export(obj) -> dict:
    """The JSON record of one ``__all__`` export."""
    if inspect.isclass(obj):
        return render_class(obj)
    if callable(obj):
        return {"kind": "function", "signature": str(inspect.signature(obj))}
    record = {"kind": type(obj).__name__}
    if isinstance(obj, dict):
        record["keys"] = sorted(map(str, obj))
    elif isinstance(obj, _LITERALS):
        record["value"] = repr(obj)
    return record


def render_surface() -> dict:
    """``{"module.name": record}`` for every export of every gated module."""
    surface = {}
    for module_name in discover_modules():
        module = importlib.import_module(module_name)
        for name in module.__all__:
            surface[f"{module_name}.{name}"] = render_export(getattr(module, name))
    return surface


def dumps(surface: dict) -> str:
    """The snapshot's canonical text: sorted, indented JSON."""
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def compare(recorded: dict, live: dict, path: str = "") -> list[str]:
    """One line per difference between a recorded and a live rendering."""
    top = not path
    lines = []
    for key in sorted(recorded.keys() | live.keys()):
        where = f"{path}.{key}" if path else key
        if key not in live:
            lines.append(f"missing export: {where}" if top else f"removed: {where}")
        elif key not in recorded:
            lines.append(f"unrecorded export: {where}" if top else f"added: {where}")
        elif isinstance(recorded[key], dict) and isinstance(live[key], dict):
            lines.extend(compare(recorded[key], live[key], where))
        elif recorded[key] != live[key]:
            lines.append(f"changed: {where}: {recorded[key]} -> {live[key]}")
    return lines


def main(argv: list[str]) -> int:
    live = render_surface()
    if "--update" in argv:
        SNAPSHOT.write_text(dumps(live), encoding="utf-8")
        print(f"api-check: recorded {len(live)} exports in {SNAPSHOT.name}")
        return 0
    text = SNAPSHOT.read_text(encoding="utf-8") if SNAPSHOT.exists() else "{}"
    problems = compare(json.loads(text), live)
    for line in problems:
        print(f"api-check: {line}", file=sys.stderr)
    if problems:
        print("api-check: if intended, run `make api-snapshot`", file=sys.stderr)
        return 1
    print(f"api-check: {len(live)} exports match {SNAPSHOT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
