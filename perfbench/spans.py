"""In-memory spans recorded around the benchmark's calls into ``tightport``.

Spans are recorded from outside the package: the benchmark routes every
call into a public function through :meth:`Tracer.call`, so the span name is
``<layer>.<function>`` with the layer being the ``tightport`` module the
function lives in.  A disabled tracer calls straight through, which is what
the timed (untraced) run uses.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Tracer:
    """Records spans while ``enabled``; counts outcome misses per span name."""

    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    misses: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str):
        return _SpanContext(self, name)

    def miss(self, name: str) -> None:
        """Count a call whose outcome disagreed with its expected outcome."""
        if self.enabled:
            self.misses[name] += 1

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, s in enumerate(self.spans):
                record = {"id": index, "name": s.name, "start": s.start, "end": s.end,
                          "parent": s.parent, "op": s.op}
                handle.write(json.dumps(record) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        if not t.enabled:
            return self
        parent = t._stack[-1] if t._stack else None
        t.spans.append(Span(self.name, time.perf_counter(), 0.0, parent, t.op))
        t._stack.append(len(t.spans) - 1)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            t.spans[t._stack.pop()].end = time.perf_counter()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer, functions: dict[str, list[str]]) -> dict[str, float]:
    """Per-layer calls, self-time busy seconds and misses, plus per-function busy.

    ``functions`` maps each layer to the functions whose busy time is reported
    on its own; every layer and function named is reported even when unused.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        layer = s.name.split(".", 1)[0]
        calls[layer] += 1
        busy[layer] += own
        busy[s.name] += own
    out: dict[str, float] = {}
    for layer in functions:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.failed"] = sum(n for name, n in tracer.misses.items()
                                     if name.split(".", 1)[0] == layer)
        for fn in functions[layer]:
            out[f"{layer}.{fn}.busy_s"] = busy[f"{layer}.{fn}"]
    return out
