"""In-memory span recorder and the wrappers of the traced run.

Only the benchmark records spans: ``instrument`` wraps public functions
of the library from the outside, at the names their callers look up,
so the library itself carries no tracing code.  Each span has a name,
start, end, parent span and operation id.  Self time is a span's
duration minus the durations of its direct children; the recorder
keeps a stack of open spans, so it is exact for the nested,
single-threaded calls traced here.

Calls named in ``hot`` (helpers called hundreds of thousands of times
per operation) are not kept one by one: they are folded into one
aggregate per operation, nearest kept ancestor span and path of hot
names below it (``pair_signature > degree_matrix``), so memory grows
with the number of distinct call paths, not with the number of calls.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterable


class Recorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter, hot: Iterable[str] = ()):
        self.clock = clock
        self.hot = frozenset(hot)
        self.spans: list[dict] = []  # finished spans, kept one by one
        self.aggregates: dict[tuple, dict] = {}  # (op, parent, hot path) -> totals
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open spans
        self._next_id = 1
        self._op: int | None = None

    def enter(self, name: str) -> list:
        if self._stack:
            top = self._stack[-1]
            kept, path = (top[0], ()) if top[1] not in self.hot else (top[4], top[6])
        else:
            kept, path = None, ()
        if name in self.hot:
            path = path + (name,)
        # [id, name, start, child_s, nearest kept ancestor, op, hot path]
        frame = [self._next_id, name, self.clock(), 0.0, kept, self._op, path]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        self._stack.pop()
        span_id, name, start, child_s, parent, op, path = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self_s = duration - child_s
        if name in self.hot:
            agg = self.aggregates.get((op, parent, path))
            if agg is None:
                self.aggregates[(op, parent, path)] = {
                    "name": name, "parent": parent, "path": list(path), "op": op, "calls": 1,
                    "start": start, "end": end, "total_s": duration, "self_s": self_s,
                }
            else:
                agg["calls"] += 1
                agg["end"] = end
                agg["total_s"] += duration
                agg["self_s"] += self_s
        else:
            self.spans.append({
                "id": span_id, "name": name, "parent": parent, "op": op,
                "start": start, "end": end, "self_s": self_s,
            })

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)

    @contextmanager
    def operation(self, name: str):
        """A root-level span that starts a new operation id for its subtree."""
        outer = self._op
        self._op = self._next_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = outer

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self) -> dict[str, dict]:
        """Per span name: number of calls and summed self time."""
        out: dict[str, dict] = {}
        for s in self.spans:
            t = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += s["self_s"]
        for a in self.aggregates.values():
            t = out.setdefault(a["name"], {"calls": 0, "self_s": 0.0})
            t["calls"] += a["calls"]
            t["self_s"] += a["self_s"]
        return out

    def dump(self, path: str) -> None:
        doc = {
            "spans": self.spans,
            "aggregates": list(self.aggregates.values()),
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(rec: Recorder, name: str, fn: Callable, after: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            rec.exit(frame)
            if after is not None:
                after(rec, args, kwargs, None, err)
            raise
        rec.exit(frame)
        if after is not None:
            after(rec, args, kwargs, result, None)
        return result

    return traced


@contextmanager
def instrument(rec: Recorder, targets: dict[str, tuple], modules: Iterable):
    """Wrap each target function everywhere it is looked up.

    ``targets`` maps a span name to ``(module, attribute, after)``; the
    original is ``getattr(module, attribute)``.  Every attribute of every
    module in ``modules`` bound to that original object is replaced by the
    wrapper for the duration of the block, so ``from x import f`` bindings
    are covered as well as ``x.f``.
    ``after(rec, args, kwargs, result, error)`` runs after each call,
    outside the span, to update counters.
    """
    modules = list(modules)
    originals = {}
    for name, (module, attr, after) in targets.items():
        fn = getattr(module, attr)
        originals[id(fn)] = (fn, _wrap(rec, name, fn, after))
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield patched
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)
