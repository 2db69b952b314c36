"""In-memory span recorder for the traced run.

The tracer wraps functions where one qmit module calls into another, as the
name is bound in the calling module, so no source under ``src/`` changes.
Each call becomes a span (name, start, end, parent span, run id) plus one
number of work counted at the same boundary (bytes, insertions). Spans are
kept in flat arrays while the run is measured and written out when it ends.
"""
from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.work = array("d")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` recording one span per call; ``work(*args)`` gives
        the number counted for the call."""
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.work.append(work(*args, **kwargs) if work else 0.0)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()

        return traced

    def install(self, targets) -> None:
        """Patch ``(owner, attribute, span name, work)`` targets in place."""
        for owner, attr, name, work in targets:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, work))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the durations of its child spans.

    Spans come from one synchronous call stack, so a span's children are
    disjoint and lie inside it.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
