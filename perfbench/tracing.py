"""In-memory spans recorded around the benchmark's own calls into the library.

A span is ``[name, start, end, parent, item, label]``: ``name`` is
``<module>.<function>`` of the public call it wraps, ``parent`` the index
of the enclosing span (-1 at the top), ``item`` the id of the workload
item the call belongs to and ``label`` an optional tag (the CLI command
of a ``cli.main`` span).  Nothing is written until the run ends.  The
untraced runs use ``NULL_TRACER``, whose spans cost one attribute lookup
and a ``with`` on a shared null context.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, label: str | None = None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.item, label]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per span name and per layer: calls, total seconds, self seconds."""
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for rec, own in zip(self.spans, self.self_times()):
            name, start, end = rec[0], rec[1], rec[2]
            key = f"{name}[{rec[5]}]" if rec[5] else name
            for table, k in ((by_name, key), (by_layer, name.split(".", 1)[0])):
                acc = table[k]
                acc[0] += 1
                acc[1] += end - start
                acc[2] += own
        return {"names": dict(by_name), "layers": dict(by_layer)}

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, item, label) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item, "label": label}) + "\n")


class _NullTracer:
    item = None
    _null = contextlib.nullcontext()

    def span(self, name: str, label: str | None = None):
        return self._null


NULL_TRACER = _NullTracer()
