"""In-memory spans and counters recorded around calls into nestlab.

A span is (name, start, end, parent span, operation id); names read
"<layer>.<call>", the layer being a nestlab module.  Spans stay in memory
and are written once, when the run ends.  The untraced run uses
NULL_TRACER, whose span() is a shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def total(self, name: str) -> float:
        """Summed duration of every span with this exact name."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Per layer, over operation spans: durations minus what child spans cover.

        Set-up spans (operation id None) are left out.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, op), covered in zip(self.spans, child_time):
            if op is not None:
                out[name.split(".", 1)[0]] += end - start - covered
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
            fh.write("\n")


class _NullTracer:
    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float = 1) -> None:
        pass


NULL_TRACER = _NullTracer()
