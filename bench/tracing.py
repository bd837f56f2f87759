"""In-memory spans recorded around the benchmark's calls into dualfx layers.

A span is (op, name, start, end, parent): `op` is the id shared by every span
of one benchmark operation and `parent` the index, in `Tracer.spans`, of the
enclosing span (None for an operation's root span).  Spans stay in memory
while the benchmark runs and are written out once, at the end, so recording
costs one list append per call.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one call; a no-op when tracing is off."""
        return self._record(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _record(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def summary(self, first: int) -> tuple[float, float, dict[str, float]]:
        """(root span ms, ms covered by the root's direct children, total ms
        per span name) for the operation whose root span is spans[first].

        An operation's spans are contiguous from its root on.  Each direct
        child of the root is a call into one layer, so the covered time is
        the sum of the layers' self times.
        """
        per_name: dict[str, float] = defaultdict(float)
        covered = 0.0
        for _, name, start, end, parent in self.spans[first + 1:]:
            per_name[name] += (end - start) * 1e3
            if parent == first:
                covered += (end - start) * 1e3
        _, _, start, end, _ = self.spans[first]
        return (end - start) * 1e3, covered, per_name

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
