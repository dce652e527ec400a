"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end, the span that caused it and the id of
the operation it belongs to.  Spans stay in memory while the workload runs
and are written out once, at the end.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

:class:`NullTracer` has the same interface and records nothing; the
untraced run calls the library through it, so both runs execute the same
benchmark code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "attrs")

    def __init__(self, sid, name, parent, op, attrs):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def span(self, name: str, op=None, **attrs):
        """Record one span; ``op`` starts a new operation id for its subtree."""
        outer_op = self._op
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, self._op, attrs)
        self.spans.append(record)
        self._stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self._op = outer_op

    def call(self, name: str, fn, *args, **attrs):
        with self.span(name, **attrs):
            return fn(*args)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")


class NullTracer:
    enabled = False

    def span(self, name: str, op=None, **attrs):
        return nullcontext()

    def call(self, name: str, fn, *args, **attrs):
        return fn(*args)


def self_times(spans) -> dict:
    """Map span id to its duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    out = {}
    for record in spans:
        covered = 0.0
        edge = record.start
        for child in sorted(children.get(record.id, ()), key=lambda c: c.start):
            lo = max(child.start, edge)
            hi = min(child.end, record.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[record.id] = record.duration - covered
    return out


def aggregate(spans) -> dict:
    """Per span name: call count, total and self seconds, and summed counters."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for record in spans:
        row = table.setdefault(
            record.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
        )
        row["calls"] += 1
        row["total_s"] += record.duration
        row["self_s"] += selfs[record.id]
        for key, value in record.attrs.items():
            row["attrs"][key] = row["attrs"].get(key, 0) + value
    return table


def layer_shares(spans, root_prefix: str = "op.") -> dict:
    """Share of the operations' traced time spent in each layer's own code.

    Only spans under operation roots (``op.*``) count; the layer of a span is
    the first component of its name.  The root's self time is the
    benchmark's own glue.
    """
    selfs = self_times(spans)
    by_id = {record.id: record for record in spans}
    roots = set()
    total = 0.0
    shares: dict[str, float] = {}
    for record in spans:
        if record.parent is None and record.name.startswith(root_prefix):
            roots.add(record.id)
            total += record.duration
    for record in spans:
        top = record
        while top.parent is not None:
            top = by_id[top.parent]
        if top.id not in roots:
            continue
        layer = "bench" if record.id in roots else record.name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + selfs[record.id]
    if total <= 0:
        return {}
    return {layer: value / total for layer, value in sorted(shares.items())}
