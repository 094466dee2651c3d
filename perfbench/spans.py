"""In-memory tracing for the benchmark's traced run.

Spans are recorded by the benchmark around its own calls into the
program's modules; the program itself is not instrumented.  Spans stay in
memory and are written out once, when the run ends.  A span's self time
is its duration minus the part of that interval its child spans cover.

:class:`ComponentProfiler` goes one level deeper for the simulator: it
wraps the public methods of the component classes that ``simulate()``
builds and keeps one running self-time total per component instead of a
span per call (a 40K-instruction run makes about 200K such calls).
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from time import perf_counter_ns
from typing import Any


class Tracer:
    """Records spans: name, start, end, parent, and the root that started
    the tree (``trace``), so every span of one operation shares an id."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: dict[int, dict[str, Any]] = {}
        self._stack: list[int] = []
        self._ids = count(1)

    def start(self, name: str, parent: int | None = None, **attrs: Any) -> int:
        span_id = next(self._ids)
        root = self._open[parent]["trace"] if parent in self._open else span_id
        self._open[span_id] = {
            "id": span_id,
            "parent": parent,
            "trace": root,
            "name": name,
            "start_ns": perf_counter_ns(),
            "attrs": attrs,
        }
        return span_id

    def end(self, span_id: int, **attrs: Any) -> None:
        span = self._open.pop(span_id)
        span["end_ns"] = perf_counter_ns()
        span["attrs"].update(attrs)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        """Synchronous span whose parent is the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        span_id = self.start(name, parent, **attrs)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.end(span_id)

    def self_ms(self, trace: int | None = None) -> dict[str, float]:
        """Total self time per span name in milliseconds, over every span
        or over the spans of one tree (``trace`` = the id of its root)."""
        spans = [s for s in self.spans if trace is None or s["trace"] == trace]
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start_ns"], span["end_ns"]))
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            start, end = span["start_ns"], span["end_ns"]
            covered = 0
            cursor = start
            for child_start, child_end in sorted(children[span["id"]]):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            totals[span["name"]] += (end - start - covered) / 1e6
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=None))


class NullTracer(Tracer):
    """The untraced run: the same interface, recording nothing."""

    def start(self, name: str, parent: int | None = None, **attrs: Any) -> int:
        return 0

    def end(self, span_id: int, **attrs: Any) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        yield 0


class ComponentProfiler:
    """Self time per simulator component, from class-level method wrappers.

    ``patch({label: cls})`` wraps every public method of each class (and
    ``run`` of the simulator class itself) until ``restore()``.  Time spent
    in a wrapped call, minus the time of wrapped calls it makes, is charged
    to the label of its class.
    """

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []
        self._saved: list[tuple[type, str, object]] = []

    def _wrap(self, label: str, fn: Any) -> Any:
        stack = self._stack
        self_ns = self.self_ns

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self_ns[label] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def patch(self, classes: dict[str, type]) -> None:
        for label, cls in classes.items():
            for name in dir(cls):
                if name.startswith("_") and name != "run":
                    continue
                fn = getattr(cls, name)
                if not inspect.isfunction(fn):
                    continue
                self._saved.append((cls, name, cls.__dict__.get(name)))
                setattr(cls, name, self._wrap(label, fn))

    def restore(self) -> None:
        for cls, name, original in reversed(self._saved):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._saved.clear()
