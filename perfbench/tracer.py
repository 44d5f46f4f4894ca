"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps a pdflow function at every attribute of every loaded
pdflow module that refers to it (for example `pdflow.linops.operator_norm`
and also `pdflow.flow.operator_norm`, `pdflow.config.operator_norm`, ...),
so a call is recorded whichever name its caller resolves.  Nothing in the
program is edited; `uninstall` restores every attribute.

A span is the list [name, start, end, parent, run_id, counts]: `parent` is
the index of the enclosing span (-1 for a root) and `run_id` the benchmark
operation the span belongs to.  `counts` holds what the wrapper read off the
call, such as `rhs_evals` from a returned FlowTrajectory.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._patches = []

    # -- spans opened by the benchmark itself ------------------------------

    def begin(self, name) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.run_id, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[START] = time.perf_counter()
        return rec

    def end(self, rec) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    # -- wrapping program functions ----------------------------------------

    def _wrap(self, fn, name, counter, inner):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            if inner is not None:
                cls, attr, key = inner
                method = getattr(cls, attr)
                calls = [0]

                def counting(*a, **k):
                    calls[0] += 1
                    return method(*a, **k)

                setattr(cls, attr, counting)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if inner is not None:
                    setattr(cls, attr, method)
            counts = counter(result, args, kwargs) if counter is not None else {}
            if inner is not None:
                counts[key] = calls[0]
            rec[COUNTS] = counts or None
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (module, attr, span_name, counter, inner) target.

        `counter(result, args, kwargs)` returns a dict of counts for the
        span; `inner = (cls, method, key)` counts calls of `cls.method`
        made while the wrapped call runs.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pdflow" or n.startswith("pdflow."))]
        for module, attr, name, counter, inner in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counter, inner)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


def aggregate(spans):
    """Self time, inclusive time, call count and summed counts per span name
    over `spans`, which must hold whole span trees.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the roots' durations.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    for rec, child_s in zip(spans, child):
        dur = rec[END] - rec[START]
        name = rec[NAME]
        self_s[name] += dur - child_s
        total_s[name] += dur
        calls[name] += 1
        for key, value in (rec[COUNTS] or {}).items():
            counts[name][key] += value
    return self_s, total_s, calls, counts
