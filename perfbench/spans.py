"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one began, or -1 at the top.  Spans are kept in
flat arrays because a traced exhaustive census opens close to a million
of them.  The recorder wraps functions from the benchmark side, at the
module attributes where callers look them up; nothing inside the program
changes.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterable, Iterator

Span = tuple[str, int, int, int]  # name, start ns, end ns, parent index


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._open: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _begin(self, name_id: int) -> int:
        i = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._open[-1] if self._open else -1)
        self._end.append(0)
        self._open.append(i)
        self._start.append(perf_counter_ns())
        return i

    def _finish(self, i: int) -> None:
        self._end[i] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(i)

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """fn with every call recorded as a span called name.

        on_call(args, result) runs after the span closes, outside it.
        """
        name_id = self._id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def spans(self) -> Iterator[Span]:
        names = self._names
        for i in range(len(self._start)):
            yield names[self._name[i]], self._start[i], self._end[i], self._parent[i]


def layer_times(spans: Iterable[Span]) -> dict[str, dict]:
    """Per span name: call count, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children.  Children never outlive their parent, so the sum of self
    times over all names equals the duration of the top-level spans.
    """
    names: list[str] = []
    durations: list[int] = []
    out: dict[str, dict] = {}
    for name, start, end, parent in spans:
        dur = end - start
        names.append(name)
        durations.append(dur)
        row = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += dur
        row["self_ns"] += dur
        if parent >= 0:
            out[names[parent]]["self_ns"] -= dur
    return {
        name: {
            "count": row["count"],
            "total_s": row["total_ns"] / 1e9,
            "self_s": row["self_ns"] / 1e9,
        }
        for name, row in out.items()
    }


@contextmanager
def patched(targets: Iterable[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set module attributes for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, replacement in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
