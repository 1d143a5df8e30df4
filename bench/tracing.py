"""Spans around the benchmark's calls into each spreadnum layer.

A span is ``(name, start, end, parent, task)``: ``name`` is ``layer.call``
for a layer call and ``task.<kind>`` for the task that made it, ``parent``
is the index of the enclosing task span, ``task`` the task's id (unique in
the run).  Spans stay in memory and are written out once, when the run
ends.  Untraced runs use :class:`NullTracer`, which adds one Python call
per layer call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_task(self, kind: str) -> None:
        pass

    def end_task(self) -> None:
        pass


class SpanTracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._tasks = 0
        self._task: int | None = None
        self._parent: int | None = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter(), self._parent, self._task])

    def begin_task(self, kind: str) -> None:
        """Open the span of the next task; its id counts tasks over the run."""
        self._task = self._tasks
        self._tasks += 1
        self._parent = len(self.spans)
        self.spans.append([f"task.{kind}", perf_counter(), None, None, self._task])

    def end_task(self) -> None:
        self.spans[self._parent][2] = perf_counter()
        self._task = self._parent = None

    def busy(self, since: int = 0) -> dict[str, list[float]]:
        """Durations of the layer spans recorded from index ``since`` on, by name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans[since:]:
            if not name.startswith("task."):
                out[name].append(end - start)
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "task")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
