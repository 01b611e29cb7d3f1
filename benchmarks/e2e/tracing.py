"""Outside-in tracing: the harness wraps a layer's public functions at run time.

Nothing under ``src/`` knows about this module.  :class:`Recorder` replaces
an attribute (a method on a class, or a module-level function) by a wrapper
that records one span per call — ``(name, start, end, parent, request id)``
— and puts the original back in :meth:`Recorder.restore`.  The parent is the
span open on the same thread when the call started (a per-thread stack);
the request id is inherited from the parent unless the wrapped call names
one (a run id).  Spans stay in memory until :meth:`Recorder.dump`.

Self time of a span is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans.  Span names are
``layer.function``; the layer is the text before the first dot.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

# span fields, by position
NAME, START, END, PARENT, REQUEST, EXTRA = range(6)
_MISSING = object()


def duration(span) -> float:
    """Seconds between a span's start and end."""
    return span[END] - span[START]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time per span: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(children.get(i, []), span[START], span[END])
        for i, span in enumerate(spans)
    ]


class Recorder:
    """Installs span/count wrappers and keeps what they record."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent id, request, extra, id)`` while recording
        self.spans: list[tuple] = []
        self.counters: dict[str, Any] = {}
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        #: wall-clock epoch of perf_counter()'s zero, to line spans up with
        #: the service's own ``time.time()`` stamps
        self.epoch = time.time() - time.perf_counter()

    # -- installing ---------------------------------------------------------
    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        # an inherited attribute is restored by deleting the override
        self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: object, attr: str, name: str, *,
             request: Callable[[tuple, dict, Any], str | None] | None = None,
             extra: Callable[[tuple, dict, Any], Any] | None = None) -> None:
        """Record one span named ``name`` around every ``owner.attr`` call.

        ``request(args, kwargs, result)`` may name the span's request id;
        ``extra(args, kwargs, result)`` may attach one JSON-able value.
        Both run after the call, outside the span's interval; ``result`` is
        None when the call raised.
        """
        original = getattr(owner, attr)
        spans, local, ids = self.spans, self._local, self._ids
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # a tuple of atoms: the collector stops tracking it, so a
                # million spans in memory do not slow the program's own GC
                spans.append((
                    name, start, end, parent,
                    request(args, kwargs, result) if request else None,
                    extra(args, kwargs, result) if extra else None,
                    span_id))

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._replace(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count ``owner.attr`` calls under ``name`` (no span: hot paths)."""
        original = getattr(owner, attr)
        counter = self.counters[name] = itertools.count()

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            next(counter)
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Calls counted per name.  Read once: reading ends the counting."""
        totals = {name: next(counter) for name, counter in self.counters.items()}
        self.counters.clear()
        return totals

    def finish(self) -> list[list]:
        """Spans ordered by start, children re-pointed at list positions.

        A request id set on a root after its children were recorded (a run
        id only known from the call's result) is pushed down to them.
        """
        ordered = sorted(self.spans, key=lambda s: s[START])
        position = {span[-1]: i for i, span in enumerate(ordered)}
        out: list[list] = []
        for span in ordered:
            parent = (position[span[PARENT]]
                      if span[PARENT] is not None else None)
            request = span[REQUEST]
            if request is None and parent is not None:
                request = out[parent][REQUEST]
            out.append([span[NAME], span[START], span[END], parent, request,
                        span[EXTRA]])
        return out

    def dump(self, path: Path, spans: list[list], meta: dict) -> None:
        """Write the spans (times in seconds since the first one)."""
        zero = spans[0][START] if spans else 0.0
        body = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "request", "extra"],
            "spans": [[s[NAME], round(s[START] - zero, 7),
                       round(s[END] - zero, 7), s[PARENT], s[REQUEST], s[EXTRA]]
                      for s in spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(body, separators=(",", ":")) + "\n")


class Layers:
    """Per-name and per-layer aggregates over finished spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.selfs = self_times(spans)
        self._by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self._by_name.setdefault(span[NAME], []).append(i)

    def _indices(self, names: tuple[str, ...]) -> list[int]:
        return sorted(i for name in names for i in self._by_name.get(name, ()))

    def named(self, *names: str) -> list[list]:
        """Spans whose name is one of ``names``, ordered by start."""
        return [self.spans[i] for i in self._indices(names)]

    def calls(self, *names: str) -> int:
        """How many spans carry one of ``names``."""
        return len(self.named(*names))

    def busy(self, *names: str) -> float:
        """Summed duration of the spans carrying one of ``names``."""
        return sum(duration(s) for s in self.named(*names))

    def self_time(self, *names: str) -> float:
        """Summed self time of the spans carrying one of ``names``."""
        return sum(self.selfs[i] for i in self._indices(names))

    def by_layer(self) -> dict[str, float]:
        """Self time summed per layer (text before the first dot)."""
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            layer = span[NAME].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.selfs[i]
        return out

    def request_self_sums(self) -> dict[str, float]:
        """Summed self time of every span, per request id."""
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span[REQUEST] is not None:
                out[span[REQUEST]] = out.get(span[REQUEST], 0.0) + self.selfs[i]
        return out
