"""In-memory span recorder wrapped around the public functions of each layer.

A span is ``(name, start, end, parent, op)``: the layer function's name, its
``perf_counter`` interval, the index of the enclosing span (-1 for a root)
and the benchmark op it belongs to. Wrappers replace module attributes that
the calling module looks up when it runs, and are removed again between ops,
so one process can time traced and untraced ops side by side.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.work: dict[int, object] = {}  # span index -> work count recorded by the wrapper
        self.measure_s: dict[int, float] = {}  # span index -> seconds spent counting that work
        self.overhead_s = 0.0  # bookkeeping seconds one span adds to its parent; see calibrate()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recorded as span ``name``; ``measure(args, kwargs, result)`` gives its work."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if measure is not None:
                counted = perf_counter()
                self.work[index] = measure(args, kwargs, result)
                self.measure_s[index] = perf_counter() - counted
            return result

        return traced

    def patch(self, module, attr: str, name: str, measure=None, fn=None) -> None:
        """Replace ``module.attr`` by a recording wrapper of ``fn`` (default: the attribute itself)."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, fn or original, measure))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def calibrate(self, calls: int = 4000, rounds: int = 7) -> float:
        """Set and return ``overhead_s``: the time a wrapped call adds outside its own span.

        That time (stack and list bookkeeping, the extra call) falls in the
        parent's interval, so ``self_times`` charges it to the child instead.
        It is the median over ``rounds`` of (wrapped no-op loop - plain no-op
        loop - the wrapped calls' own spans) / ``calls``. The no-op takes three
        arguments, as most traced layer functions do.
        """

        def noop(a, b, c):
            return None

        traced = self.wrap("calibration", noop)
        estimates = []
        for _ in range(rounds):
            first = len(self.spans)
            t0 = perf_counter()
            for i in range(calls):
                noop(i, None, self)
            t1 = perf_counter()
            for i in range(calls):
                traced(i, None, self)
            t2 = perf_counter()
            inside = sum(end - start for _, start, end, _, _ in self.spans[first:])
            del self.spans[first:]
            estimates.append(((t2 - t1) - (t1 - t0) - inside) / calls)
        self.overhead_s = max(0.0, sorted(estimates)[rounds // 2])
        return self.overhead_s

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's spans and their tracing cost."""
        child = [0.0] * len(self.spans)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start + self.overhead_s + self.measure_s.get(i, 0.0)
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive busy seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += self_s
        return dict(out)

    def work_by_name(self) -> dict[str, list]:
        out: dict[str, list] = defaultdict(list)
        for index, value in self.work.items():
            out[self.spans[index][0]].append(value)
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, one span per line.

        A span's tracing cost in its parent is ``overhead_s`` plus its ``measure_s``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with gzip.open(tmp, "wt", encoding="utf-8") as f:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"i": index, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "work": self.work.get(index),
                                    "measure_s": self.measure_s.get(index, 0.0)}) + "\n")
        os.replace(tmp, path)
