"""In-memory span tracer that wraps a program's functions from outside.

Each wrapped call records a span (name, start, end, parent). A span's
self time is its duration minus the time its child spans cover, so the
self times of every span in a tree add up to the root span's duration.
Counter hooks run inside a ``trace.hooks`` span, which keeps their cost
out of the layer being measured and shows it as tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

HOOKS = "trace.hooks"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear a tracer with open spans")
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.counters.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self seconds."""
        child_time = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[idx]
        return out

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, prepare=None, after=None):
        """``fn`` recorded as span ``name``.

        ``prepare(args, kwargs) -> (args, kwargs)`` runs before the call and
        ``after(result, args)`` after it; both are timed as hooks.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                with tracer.span(HOOKS):
                    args, kwargs = prepare(args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                with tracer.span(HOOKS):
                    after(result, args)
            return result

        return traced

    def patch(self, module_name: str, attr_path: str, make) -> bool:
        """Replace ``module.attr_path`` by ``make(original)``.

        ``attr_path`` is ``name`` or ``Class.method``. Returns False, and
        patches nothing, when the module or any part of the path is missing.
        """
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        return True

    def patch_any(self, group: str, targets, make) -> None:
        """Patch every existing ``(module, attr_path)``; note ``group`` absent if none."""
        found = [self.patch(module, path, make) for module, path in targets]
        if not any(found):
            self.absent.append(group)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
