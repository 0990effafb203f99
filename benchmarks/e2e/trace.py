"""Outside-in span tracer: times public callables of the ``repro`` layers.

The benchmark takes its per-layer numbers without touching ``src/``.  A
:class:`Tracer` replaces each :class:`Target` on its class with a wrapper
that opens a :class:`Span` (name, start, end, parent span, request id)
around the original call and lets an optional :class:`Probe` count work
from the call's arguments and result.  Leaving the tracer's ``with`` block
puts every original back, also when the block raised.

Spans stay in memory.  :meth:`Tracer.layer_metrics` folds them into
``calls``, ``total_s`` and ``self_s`` per callable; a span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable

#: Phases of a workload run.  ``setup`` runs once; every pass then sends
#: timed requests with untimed output checks between them.
SETUP, TIMED, CHECK = "setup", "timed", "check"

_MISSING = object()


@dataclass(frozen=True)
class Probe:
    """Counts work at a traced boundary.

    ``after(tracer, call, state, result)`` runs once the call returned;
    ``call`` holds the bound arguments (defaults applied) and ``state`` is
    what ``before(call)`` returned just before the call (None without it).
    """

    after: Callable
    before: Callable | None = None


@dataclass(frozen=True)
class Target:
    """One callable to trace: ``owner.attr``, reported under ``layer``.

    An inherited method is wrapped on ``owner`` itself and deleted from it
    again on exit.
    """

    layer: str
    owner: type
    attr: str
    probe: Probe | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.owner.__name__}.{self.attr}"


@dataclass
class Span:
    """One traced call."""

    id: int
    name: str
    layer: str
    parent: int | None
    request: int | None
    phase: str
    start: float
    end: float = float("nan")
    failed: bool = False


class Tracer:
    """Wraps :class:`Target` callables while installed; records spans.

    Use as a context manager.  The workload driving it sets ``phase`` and
    ``request_id``; every span and count records the phase current when it
    was taken.
    """

    def __init__(self, targets) -> None:
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.phase = SETUP
        self.request_id: int | None = None
        #: Wall time spent in the wrappers themselves, per phase.
        self.overhead_s: dict[str, float] = defaultdict(float)
        #: Probe memory keyed by traced object (e.g. an engine's degrees).
        self.state = weakref.WeakKeyDictionary()
        self._counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[Span] = []
        self._saved: list[tuple[type, str, object]] = []

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the count ``name`` in the current phase."""
        self._counts[(self.phase, name)] += float(value)

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Replace every target with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                raw = inspect.getattr_static(target.owner, target.attr)
                saved = vars(target.owner).get(target.attr, _MISSING)
                setattr(target.owner, target.attr, self._wrap(target, raw))
                self._saved.append((target.owner, target.attr, saved))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def _wrap(self, target: Target, raw):
        # Descriptors keep their kind, so a classmethod still receives the
        # class; special methods are set on the type, where Python looks
        # them up.
        if isinstance(raw, classmethod):
            return classmethod(self._wrapper(target, raw.__func__))
        if inspect.isfunction(raw):
            return self._wrapper(target, raw)
        raise TypeError(f"cannot trace {target.name}: not a function ({raw!r})")

    def _wrapper(self, target: Target, fn):
        name, layer, probe = target.name, target.layer, target.probe
        signature = inspect.signature(fn) if probe is not None else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            call = state = None
            if probe is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                if probe.before is not None:
                    state = probe.before(call)
            stack = tracer._stack
            span = Span(
                id=len(tracer.spans),
                name=name,
                layer=layer,
                parent=stack[-1].id if stack else None,
                request=tracer.request_id,
                phase=tracer.phase,
                start=0.0,
            )
            tracer.spans.append(span)
            stack.append(span)
            tracer.count(f"{layer}.ops.attempted")
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.failed = True
                stack.pop()
                tracer.count(f"{layer}.ops.failed")
                raise
            span.end = clock()
            stack.pop()
            if probe is not None:
                probe.after(tracer, call, state, result)
            tracer.overhead_s[span.phase] += (span.start - enter) + (clock() - span.end)
            return result

        return traced

    # ------------------------------------------------------------------
    # reading the trace
    # ------------------------------------------------------------------
    def layer_metrics(self, passes: int) -> dict[str, float]:
        """``<target>.calls``/``.total_s``/``.self_s`` and every count.

        Values describe one set-up plus one pass: the set-up phase's value
        plus the mean over ``passes`` of the rest.
        """
        child_s: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        setup: dict[str, float] = defaultdict(float)
        per_pass: dict[str, float] = defaultdict(float)
        for target in self.targets:
            for stat in ("calls", "total_s", "self_s"):
                setup[f"{target.name}.{stat}"] = 0.0
        for span in self.spans:
            acc = setup if span.phase == SETUP else per_pass
            duration = span.end - span.start
            acc[f"{span.name}.calls"] += 1
            acc[f"{span.name}.total_s"] += duration
            acc[f"{span.name}.self_s"] += duration - child_s[span.id]
        for (phase, name), value in self._counts.items():
            (setup if phase == SETUP else per_pass)[name] += value
        names = set(setup) | set(per_pass)
        return {n: setup.get(n, 0.0) + per_pass.get(n, 0.0) / passes for n in names}

    def covered_s(self, phase: str) -> float:
        """Wall time inside top-level spans taken in ``phase``."""
        return sum(
            s.end - s.start for s in self.spans if s.parent is None and s.phase == phase
        )

    def span_records(self) -> list[dict]:
        """Every span as a plain dict, in start order."""
        return [asdict(span) for span in self.spans]
