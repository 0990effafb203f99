"""The rule plugins: each encodes one machine-checked repo contract.

Every rule is a :class:`~tools.reprolint.engine.Rule` subclass registered
via :func:`~tools.reprolint.engine.register`.  The eight shipped rules map
one-to-one onto invariants of the codebase:

========  ==============================================================
RNG001    determinism: no process-global numpy RNG in ``src/``
DTYPE001  precision policy: explicit dtypes in policy modules
SEAM001   storage seam: no private column access outside graph/storage
DUR001    durability: fsync before every ``os.replace`` publish
API001    API hygiene: ``__all__`` exports carry docstrings
TEST001   test hygiene: pytest markers must be registered in pytest.ini
PAR001    parallelism: shared arrays mutate only inside ``parallel/``
EVT001    write path: ``EventBatch`` is built only by the validation gate
========  ==============================================================

Path scopes are expressed against the scan root, so the same rules run
unchanged over fixture trees in the test suite.
"""

from __future__ import annotations

import ast

from tools.reprolint.engine import FileContext, Rule, dotted_name, register

#: numpy.random constructors that are fine to call (they build explicit
#: generator objects instead of touching the process-global stream).
_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
})

#: Generator factories that additionally must be *seeded*.
_SEED_REQUIRED = frozenset({"default_rng", "RandomState"})

#: Array constructors whose dtype defaults to float64, mapped to the
#: positional index their dtype parameter sits at.
_DTYPE_CONSTRUCTORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2, "arange": 3}

#: Modules the float32/int32 precision policy governs (PR5).
_PRECISION_DIRS = (
    "src/repro/nn/", "src/repro/walks/", "src/repro/graph/", "src/repro/stream/",
)

#: Private storage columns of TemporalGraph / GraphStorage backends (PR7).
_PRIVATE_COLUMNS = frozenset({"_src", "_dst", "_time", "_weight", "_store"})

#: The only packages allowed to reach through the storage seam.
_SEAM_DIRS = ("src/repro/graph/", "src/repro/storage/")

#: Files bound by the fsync-before-publish durability protocol (PR7/PR8).
_DURABILITY_FILES = ("src/repro/stream/wal.py", "src/repro/utils/checkpoint.py")
_DURABILITY_DIRS = ("src/repro/storage/",)

#: The only package allowed to unfreeze shared-memory array views (PR10).
_PARALLEL_DIRS = ("src/repro/parallel/",)

#: The one file allowed to construct an EventBatch (the validation gate).
_EVENT_BATCH_HOME = "src/repro/storage/base.py"

#: Marker names pytest itself defines; never required in pytest.ini.
_BUILTIN_MARKS = frozenset({
    "parametrize", "skip", "skipif", "xfail", "usefixtures", "filterwarnings",
})


def _in_dirs(rel: str, prefixes) -> bool:
    return any(rel.startswith(prefix) for prefix in prefixes)


def _has_dtype_argument(node: ast.Call, positional_index: int) -> bool:
    if len(node.args) > positional_index:
        return True
    for keyword in node.keywords:
        if keyword.arg is None or keyword.arg == "dtype":
            # ``**kwargs`` splats are unresolvable statically; trust them.
            return True
    return False


@register
class GlobalRngRule(Rule):
    """RNG001 — all randomness must flow through explicit Generators.

    PR2/PR4 made bitwise reproducibility the correctness argument: every
    stochastic path threads a seeded ``np.random.Generator`` (via
    ``utils/rng.ensure_rng`` or the Runner's per-cell derivation).  One call
    into the process-global stream — or an unseeded ``default_rng()`` —
    breaks fixed-seed equivalence silently.
    """

    rule_id = "RNG001"
    title = "no process-global numpy RNG"
    contract = (
        "src/ never samples from the global np.random stream and never "
        "builds an unseeded generator; thread an explicit seeded "
        "np.random.Generator (utils/rng.ensure_rng) instead"
    )
    interests = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.rel.startswith("src/")

    def visit(self, node: ast.Call, ctx: FileContext):
        qualified = ctx.resolve_call(node.func)
        if not qualified or not qualified.startswith("numpy.random."):
            return
        fn = qualified[len("numpy.random."):]
        if "." in fn:  # an attribute on a constructor result, not a sampler
            return
        if fn in _SEED_REQUIRED and not node.args and not node.keywords:
            yield self.finding(
                ctx, node.lineno,
                f"np.random.{fn}() without a seed draws OS entropy — "
                "pass a seed (or an existing Generator) so runs reproduce",
            )
        elif fn not in _RNG_CONSTRUCTORS:
            yield self.finding(
                ctx, node.lineno,
                f"np.random.{fn}() uses the process-global RNG stream; "
                "thread an explicit np.random.Generator "
                "(utils/rng.ensure_rng) instead",
            )


@register
class DtypeDefaultRule(Rule):
    """DTYPE001 — precision-policy modules allocate with explicit dtypes.

    PR5 made precision a policy: float arrays take the policy dtype, index
    arrays take the graph's index dtype.  A bare ``np.zeros(n)`` in a hot
    path silently re-introduces float64 compute (and 2x the memory) under
    the float32 fast mode.
    """

    rule_id = "DTYPE001"
    title = "explicit dtype in precision-policy modules"
    contract = (
        "nn/, walks/, graph/ and stream/ never call a float64-defaulting "
        "array constructor (np.zeros/empty/ones/arange/full) without an "
        "explicit dtype"
    )
    interests = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        return _in_dirs(ctx.rel, _PRECISION_DIRS)

    def visit(self, node: ast.Call, ctx: FileContext):
        qualified = ctx.resolve_call(node.func)
        if not qualified or not qualified.startswith("numpy."):
            return
        fn = qualified[len("numpy."):]
        positional_index = _DTYPE_CONSTRUCTORS.get(fn)
        if positional_index is None or _has_dtype_argument(node, positional_index):
            return
        yield self.finding(
            ctx, node.lineno,
            f"np.{fn}(...) without dtype= defaults to float64/platform int "
            "inside a precision-policy module; state the dtype explicitly "
            "(nn/dtypes.py owns the policy)",
        )


@register
class StorageSeamRule(Rule):
    """SEAM001 — event columns are read through the storage seam only.

    PR7 put a ``GraphStorage`` backend under ``TemporalGraph``; code above
    the seam sees ``graph.src/dst/time/weight`` (public, backend-agnostic).
    Reaching for ``graph._src`` or ``graph._store`` couples a caller to one
    backend's memory layout and bypasses the compaction guard.
    """

    rule_id = "SEAM001"
    title = "no private storage-column access outside the seam"
    contract = (
        "only graph/ and storage/ touch ._src/._dst/._time/._weight/._store; "
        "everything else reads the public column properties"
    )
    interests = (ast.Attribute,)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.rel.startswith("src/") and not _in_dirs(ctx.rel, _SEAM_DIRS)

    def visit(self, node: ast.Attribute, ctx: FileContext):
        if node.attr not in _PRIVATE_COLUMNS:
            return
        value = node.value
        if isinstance(value, ast.Name) and value.id in ("self", "cls"):
            return  # a class's own private attribute, not a seam reach
        yield self.finding(
            ctx, node.lineno,
            f".{node.attr} is a private storage column of "
            "TemporalGraph/GraphStorage; outside graph/ and storage/, read "
            "the public surface (graph.src/dst/time/weight, graph.storage)",
        )


@register
class DurabilityRule(Rule):
    """DUR001 — every atomic publish fsyncs before it renames.

    PR8's crash-safety protocol: stage to a temp file, flush + fsync, then
    ``os.replace`` (and fsync the directory).  An ``os.replace`` with no
    preceding fsync in the same function can publish a name whose bytes are
    still in the page cache — exactly the torn state recovery cannot detect.
    """

    rule_id = "DUR001"
    title = "fsync before os.replace in durability code"
    contract = (
        "wal.py, utils/checkpoint.py and storage/ route every os.replace "
        "publish through an fsync (os.fsync / *fsync* helper / sync_now) "
        "earlier in the same function"
    )
    interests = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.rel in _DURABILITY_FILES or _in_dirs(ctx.rel, _DURABILITY_DIRS)

    def begin_file(self, ctx: FileContext) -> None:
        self._replaces: list[tuple[int, int]] = []  # (scope id, line)
        self._synced_scopes: dict[int, int] = {}  # scope id -> first sync line

    def _scope_id(self, ctx: FileContext) -> int:
        scope = ctx.current_scope()
        return id(scope) if scope is not None else 0

    def visit(self, node: ast.Call, ctx: FileContext):
        qualified = ctx.resolve_call(node.func)
        dotted = dotted_name(node.func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        if qualified == "os.replace":
            self._replaces.append((self._scope_id(ctx), node.lineno))
        elif qualified == "os.fsync" or "fsync" in tail or tail == "sync_now":
            scope = self._scope_id(ctx)
            self._synced_scopes.setdefault(scope, node.lineno)
        return ()

    def end_file(self, ctx: FileContext):
        for scope, line in self._replaces:
            synced_at = self._synced_scopes.get(scope)
            if synced_at is None or synced_at >= line:
                yield self.finding(
                    ctx, line,
                    "os.replace publishes without a preceding fsync in this "
                    "function — flush + os.fsync the staged file first so a "
                    "crash cannot publish unsynced bytes",
                )


@register
class PublicDocstringRule(Rule):
    """API001 — the exported surface documents itself.

    ``tools/check_api.py`` gates the *shape* of the public surface against
    the ``tools/api_surface.json`` snapshot; this
    rule gates its *legibility*: anything a module exports via ``__all__``
    is part of the supported API and must say what it is for.
    """

    rule_id = "API001"
    title = "__all__ exports carry docstrings"
    contract = (
        "every function/class a src/ module lists in __all__ has a docstring"
    )
    interests = ()

    def applies(self, ctx: FileContext) -> bool:
        return ctx.rel.startswith("src/")

    @staticmethod
    def _exported_names(tree: ast.Module) -> set:
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    value = node.value
                    if isinstance(value, (ast.List, ast.Tuple)):
                        return {
                            element.value
                            for element in value.elts
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        }
        return set()

    def end_file(self, ctx: FileContext):
        exported = self._exported_names(ctx.tree)
        if not exported:
            return
        for node in ctx.tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name in exported and ast.get_docstring(node) is None:
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                yield self.finding(
                    ctx, node.lineno,
                    f"public {kind} {node.name!r} is exported via __all__ "
                    "but has no docstring",
                )


@register
class SharedMutationRule(Rule):
    """PAR001 — shared-memory arrays are written only inside ``parallel/``.

    PR10's isolation contract: :class:`~repro.storage.SharedArrayPack`
    hands out *frozen* views (``writeable=False``), and only the
    sanctioned site in ``repro/parallel`` (the leader's live parameter
    view) re-derives write access.  A
    ``writable=True`` call — or a flag flip back to writeable — anywhere
    else lets two processes race on the same buffer with no protocol.
    """

    rule_id = "PAR001"
    title = "no shared-array write access outside parallel/"
    contract = (
        "outside repro/parallel, nothing re-enables writes on a shared "
        "view: no writable=True keyword, no .flags.writeable flip and no "
        "setflags(write=...) to anything but False (freezing is fine)"
    )
    interests = (ast.Assign, ast.Call)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.rel.startswith("src/") and not _in_dirs(ctx.rel, _PARALLEL_DIRS)

    @staticmethod
    def _is_false(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value is False

    def visit(self, node, ctx: FileContext):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "writeable"
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "flags"
                    and not self._is_false(node.value)
                ):
                    yield self.finding(
                        ctx, node.lineno,
                        ".flags.writeable set to a non-False value outside "
                        "repro/parallel — shared views stay frozen; only the "
                        "worker-pool modules may re-derive write access",
                    )
            return
        dotted = dotted_name(node.func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        if tail == "setflags":
            for keyword in node.keywords:
                if keyword.arg == "write" and not self._is_false(keyword.value):
                    yield self.finding(
                        ctx, node.lineno,
                        "setflags(write=...) re-enables writes outside "
                        "repro/parallel — shared views stay frozen; only the "
                        "worker-pool modules may re-derive write access",
                    )
        for keyword in node.keywords:
            if keyword.arg == "writable" and not self._is_false(keyword.value):
                yield self.finding(
                    ctx, node.lineno,
                    "writable=True requests a mutable shared view outside "
                    "repro/parallel — read through the frozen default view, "
                    "or move the mutation into the worker-pool modules",
                )


@register
class MarkerRegistrationRule(Rule):
    """TEST001 — pytest markers are declared before they are used.

    The tier-1 suite deselects by marker (``-m "not stress and not
    scale"``); a typo'd or unregistered marker silently selects the wrong
    set instead of failing.  Every marker used in tests/ and benchmarks/
    must appear in pytest.ini's ``markers`` list.
    """

    rule_id = "TEST001"
    title = "pytest markers registered in pytest.ini"
    contract = (
        "every pytest.mark.<name> used under tests/ and benchmarks/ is "
        "registered in pytest.ini (builtin marks exempt)"
    )
    interests = (ast.Attribute,)

    def applies(self, ctx: FileContext) -> bool:
        if ctx.config.registered_markers is None:
            return False  # no pytest.ini at the scan root: nothing to check
        return ctx.rel.startswith(("tests/", "benchmarks/"))

    def visit(self, node: ast.Attribute, ctx: FileContext):
        value = node.value
        if not (
            isinstance(value, ast.Attribute)
            and value.attr == "mark"
            and isinstance(value.value, ast.Name)
            and value.value.id == "pytest"
        ):
            return
        name = node.attr
        if name in _BUILTIN_MARKS or name in ctx.config.registered_markers:
            return
        yield self.finding(
            ctx, node.lineno,
            f"pytest.mark.{name} is not registered in pytest.ini — add it "
            "to the markers list (tier-1 deselection depends on marker "
            "spelling)",
        )


@register
class EventBatchRule(Rule):
    """EVT001 — an ``EventBatch`` is built only by the validation gate.

    Holding an ``EventBatch`` is the proof that its events passed
    ``validate_event_columns``: the WAL, ``TemporalGraph.extend_in_place``
    and the memmap writer trust it without checking again.  A batch built
    anywhere else would carry that proof without the check.
    """

    rule_id = "EVT001"
    title = "EventBatch built only in storage/base.py"
    contract = (
        "EventBatch(...) is constructed only in src/repro/storage/base.py "
        "(by validate_event_columns and EventBatch.slice); everywhere else "
        "a batch comes from validate_event_columns or parse_edge_batch"
    )
    interests = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.rel != _EVENT_BATCH_HOME

    def visit(self, node: ast.Call, ctx: FileContext):
        name = dotted_name(node.func)
        if name is None or name.rpartition(".")[2] != "EventBatch":
            return
        yield self.finding(
            ctx, node.lineno,
            "EventBatch(...) outside storage/base.py skips validation; "
            "build the batch with validate_event_columns (or "
            "repro.base.parse_edge_batch) instead",
        )
