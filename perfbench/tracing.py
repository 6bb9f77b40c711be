"""In-memory span tracing around the public functions of ``repro``.

A :class:`Tracer` records one span per call of a wrapped function: name,
start and end (``perf_counter_ns``), the enclosing span (tracked per
thread and per asyncio task through a :mod:`contextvars` variable) and a
request id.  Spans stay in memory and are written out once, when the
traced run ends.  The benchmark only ever wraps *public* functions and
methods; nothing inside the program is edited.

A span's self time is its duration minus the part of its interval that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from pathlib import Path

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "count")

    def __init__(self, span_id, name, start, parent, request):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        #: Work items the call handled (windows, rows, bytes), if known.
        self.count = None

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent,
            "request": self.request, "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["id"], data["name"], data["start"], data["parent"],
                   data["request"])
        span.end = data["end"]
        span.count = data["count"]
        return span


class Tracer:
    """Collects the spans of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str, request=None) -> tuple[Span, object]:
        parent = _CURRENT.get()
        span = Span(
            next(self._ids), name, time.perf_counter_ns(),
            parent.id if parent is not None else None, request,
        )
        token = _CURRENT.set(span)
        return span, token

    def finish(self, span: Span, token) -> None:
        span.end = time.perf_counter_ns()
        _CURRENT.reset(token)
        self.spans.append(span)

    def current(self) -> Span | None:
        """The innermost open span of this thread or task."""
        return _CURRENT.get()

    def record(self, name: str, start: int, end: int, request=None) -> None:
        """Add a span measured by the caller (e.g. a queue wait)."""
        span = Span(next(self._ids), name, start, None, request)
        span.end = end
        self.spans.append(span)

    def mark(self, name: str) -> None:
        """A zero-length span: counts an event."""
        now = time.perf_counter_ns()
        self.record(name, now, now)

    def span(self, name: str, request=None):
        return _SpanContext(self, name, request)

    def wrap(self, fn, name: str, request_of=None, count_of=None):
        """A wrapper of ``fn`` that records one span per call.

        ``request_of(args, kwargs)`` names the request the call serves;
        ``count_of(result)`` the work items it handled.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(args, kwargs) if request_of else None
            span, token = self.begin(name, request)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span, token)
            if count_of is not None:
                span.count = count_of(result)
            return result

        return traced

    def wrap_iter(self, iterable, name: str):
        """Yield from ``iterable``, recording each ``next()`` as a span —
        the time a generator spends producing its items."""
        iterator = iter(iterable)
        while True:
            span, token = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.finish(span, token)
            yield item

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`unpatch`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, replacement) -> None:
        """Replace a module-level function in its module *and* in every
        ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "request", "span", "token")

    def __init__(self, tracer, name, request):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self) -> Span:
        self.span, self.token = self.tracer.begin(self.name, self.request)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.tracer.finish(self.span, self.token)


def load_spans(paths) -> list[Span]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans.extend(Span.from_dict(json.loads(line)) for line in fh)
    return spans


def children_of(spans) -> dict:
    out: dict = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span), in nanoseconds."""
    kids = children_of(spans)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(kids.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.dur_ns - covered
    return out


def descendant_time(span, kids, name: str) -> int:
    """Total duration of the descendants of ``span`` called ``name``
    (not counting nested spans of the same name twice)."""
    total = 0
    stack = list(kids.get(span.id, ()))
    while stack:
        child = stack.pop()
        if child.name == name:
            total += child.dur_ns
        else:
            stack.extend(kids.get(child.id, ()))
    return total


def ledger(spans, total_ns: float, n_items: int, unit: str) -> list[dict]:
    """Self time per span name: ms per item, share of ``total_ns`` and
    call count, largest first."""
    selfs = self_times(spans)
    rows: dict[str, list] = {}
    for span in spans:
        entry = rows.setdefault(span.name, [0, 0])
        entry[0] += selfs[span.id]
        entry[1] += 1
    return [
        {"layer": name, f"self_ms_per_{unit}": ns / 1e6 / max(n_items, 1),
         "share": ns / total_ns if total_ns else 0.0, "calls": calls}
        for name, (ns, calls) in sorted(rows.items(), key=lambda kv: -kv[1][0])
    ]


#: The feature kernels ``Paper10FeatureExtractor.extract_batch`` calls.
KERNELS = (
    "band_powers", "dwt_details", "permutation_entropy", "renyi_entropy",
    "sample_entropy",
)


def trace_features(tracer: Tracer) -> None:
    """Wrap ``Paper10FeatureExtractor.extract_batch`` (count: windows)
    and every kernel callable ``repro.kernels.get_kernel`` hands out."""
    import repro.kernels as kernels
    from repro.features.paper10 import Paper10FeatureExtractor

    tracer.patch(Paper10FeatureExtractor, "extract_batch", tracer.wrap(
        Paper10FeatureExtractor.extract_batch, "features.extract_batch",
        count_of=lambda rows: int(rows.shape[0]),
    ))
    get_kernel = kernels.get_kernel

    def traced_get_kernel(name, *args, **kwargs):
        return tracer.wrap(get_kernel(name, *args, **kwargs), f"kernels.{name}")

    tracer.patch_function(kernels, "get_kernel", traced_get_kernel)
