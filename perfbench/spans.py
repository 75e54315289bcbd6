"""In-memory spans recorded around calls into janaka's layers.

The tracer replaces module (or class) attributes through which callers reach
a layer's public functions with wrappers. Each call records one span: name,
start and end (ns), the span that was open when it started, the op it belongs
to, and an optional work amount (for example trace x position x node units
for an evaluator call). Nothing under ``src/`` is touched: the wrappers are
installed from the benchmark and removed again, restoring the original
objects.

Spans live in flat arrays so that a few hundred thousand of them per round
stay cheap; they are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("d")
        self._stack: list[int] = []
        self.current_op = -1

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrapper(self, fn, name, work=None, rename=None):
        """Wrap fn so that every call records a span.

        ``work(args, kwargs, result)`` gives the span's work amount and
        ``rename(args, kwargs)`` a per-call span name; both run after the
        span's end time is taken.
        """
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.work.append(0.0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = time.perf_counter_ns()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self._stack.pop()
            if rename is not None:
                self.name[idx] = self._name_id(rename(args, kwargs))
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, points):
        """Install wrappers on ``points`` = [(owner, attr, name, work, rename)]
        and restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, name, work, rename in points:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrapper(orig, name, work, rename))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def __len__(self) -> int:
        return len(self.start)

    def durations_ns(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations_ns()
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                    "work": self.work[i],
                }) + "\n")
