"""In-memory span tracer that wraps a package's functions from the outside.

Every wrapped call opens a span with a name, a start, an end and a parent.
A call made while no span is open starts a new trace id, so the spans of one
CLI command or one trajectory share an id.  Calls made inside a training run
(``solver.train`` or ``solver.train_step``) or inside a ``verification``
check are too many to keep one by one: they are aggregated per (trace id,
name, parent name, inside-a-train-step) as a call count, total time and self
time.  Self time is a span's duration minus the time its direct
child spans cover; there is one thread, so the children of a span never
overlap and their durations simply add up.

A hook attached to a name runs after the call has ended, on the clock's
paused time, so what a hook computes is charged to no span.
"""

from __future__ import annotations

import json
import sys
import time
import types
from dataclasses import dataclass, field

AGGREGATE_BELOW = ("solver.train", "verification.")  # name prefixes
STEP = "solver.train_step"


@dataclass
class _Frame:
    name: str
    span_id: int
    start: float
    aggregated: bool
    in_step: bool
    child_s: float = 0.0


@dataclass
class Aggregate:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    clock: callable = time.perf_counter
    spans: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _paused_s: float = 0.0
    _next_id: int = 0
    _trace_id: int = -1

    @property
    def trace_id(self) -> int:
        return self._trace_id

    def now(self) -> float:
        return self.clock() - self._paused_s

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._trace_id += 1
        aggregated = parent is not None and (
            parent.aggregated or parent.name.startswith(AGGREGATE_BELOW))
        in_step = parent is not None and (parent.in_step or parent.name == STEP)
        self._next_id += 1
        self._stack.append(_Frame(name, self._next_id, self.now(), aggregated, in_step))

    def exit(self) -> None:
        end = self.now()
        frame = self._stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        if frame.aggregated:
            key = (self._trace_id, frame.name, parent.name, frame.in_step)
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = Aggregate()
            agg.count += 1
            agg.total_s += duration
            agg.self_s += self_s
        else:
            self.spans.append({
                "trace": self._trace_id, "id": frame.span_id, "name": frame.name,
                "parent": None if parent is None else parent.span_id,
                "parent_name": None if parent is None else parent.name,
                "start": frame.start, "end": end, "self_s": self_s,
            })

    def count(self, key: tuple, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def run_hook(self, hook, args, kwargs, result) -> None:
        """Run ``hook`` with the clock paused, so its cost lands in no span."""
        t0 = self.clock()
        try:
            hook(self, args, kwargs, result)
        finally:
            self._paused_s += self.clock() - t0

    def wrap(self, fn, name: str, hook=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                self.run_hook(hook, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------- queries

    def calls(self, name: str, in_step: bool | None = None) -> tuple[int, float, float]:
        """(count, total seconds, self seconds) over full and aggregated spans."""
        count, total, self_s = 0, 0.0, 0.0
        for span in self.spans:
            if span["name"] == name and not in_step:
                count += 1
                total += span["end"] - span["start"]
                self_s += span["self_s"]
        for (_, agg_name, _, agg_in_step), agg in self.aggregates.items():
            if agg_name == name and (in_step is None or agg_in_step == in_step):
                count += agg.count
                total += agg.total_s
                self_s += agg.self_s
        return count, total, self_s

    def dump(self, path, extra: dict) -> None:
        payload = {
            "spans": self.spans,
            "aggregates": [
                {"trace": t, "name": n, "parent_name": p, "in_step": s,
                 "count": a.count, "total_s": a.total_s, "self_s": a.self_s}
                for (t, n, p, s), a in self.aggregates.items()
            ],
            "counters": [{"key": list(k), "value": v} for k, v in self.counters.items()],
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(tracer: Tracer, package: str, modules, methods=(), hooks=None) -> None:
    """Wrap every public function of ``modules`` wherever the package binds it.

    ``modules`` maps a short layer name to a module object.  A function bound
    under several names (``from .model import latent`` in another module) is
    replaced at every binding, so calls through any of them are traced.
    ``methods`` lists ``(short, class, method name)`` triples to wrap on the
    class.  Only modules of ``package`` are touched.
    """
    hooks = hooks or {}
    replacements = {}
    for short, module in modules.items():
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                    or value.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            replacements[id(value)] = (value, tracer.wrap(value, name, hooks.get(name)))
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for short, cls, method in methods:
        name = f"{short}.{cls.__name__}.{method}"
        setattr(cls, method, tracer.wrap(getattr(cls, method), name, hooks.get(name)))
