"""In-memory spans around the benchmark's calls into the library.

A span is (id, name, start, end, parent, op). Each op of a pass opens one
span named ``op``; every library call made inside it is a child span named
``<layer>.<function>``. Spans are kept in a list and written out by the
parent process when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)


def span_cost(n: int = 20000) -> float:
    """Seconds a span adds to one call: n traced minus n plain empty calls, over n."""
    start = time.monotonic()
    for _ in range(n):
        plain_call("probe", int)
    plain = time.monotonic() - start
    tracer = Tracer()
    start = time.monotonic()
    for _ in range(n):
        tracer.call("probe", int)
    return (time.monotonic() - start - plain) / n


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name: duration minus that of its children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child[s["id"]]
    return out


def call_counts(spans: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + 1
    return out
