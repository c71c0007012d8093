"""In-memory span recorder for the traced benchmark run.

Each listed public function of ``atree`` is replaced, for the duration of
one traced iteration, by a wrapper that records a span: its name, start and
end (perf_counter nanoseconds), the enclosing span and the id of the
benchmark operation that caused it. The wrapper is installed under the
function's own module attribute and under every other name bound to the same
object in a loaded ``atree`` module (``atree.tree.adaboost_train``,
``atree.metrics.train_linear_svm``, the package re-exports, ...), so calls
between modules are seen too. A listed function that no longer exists is
recorded as absent instead of failing the run.

Spans are kept in flat lists and only summarised or written out once the
traced iteration has finished.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def atree_modules():
    """The loaded ``atree`` package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "atree" or name.startswith("atree."))]


def resolve(target):
    """The function "<module>.<function>" of ``atree``, or None if absent."""
    module_name, _, fn_name = target.rpartition(".")
    module = sys.modules.get(f"atree.{module_name}")
    original = getattr(module, fn_name, None) if module else None
    return original if callable(original) else None


class Patches:
    """Replaces a function object wherever an ``atree`` module binds it."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for module in atree_modules():
            names = [k for k, v in vars(module).items() if v is original]
            for name in names:
                setattr(module, name, replacement)
                self._undo.append((module, name, original))

    def restore(self):
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)


class SpanRecorder:
    def __init__(self, targets, hooks=None):
        """targets: "<module>.<function>" names under ``atree``; hooks maps a
        target to a callable(result) run after each call, outside the span."""
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.absent = []
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.trace = []
        self.trace_id = 0
        self._stack = []
        self._patches = Patches()

    def _wrap(self, name, fn):
        names, start, end = self.names, self.start, self.end
        parent, trace, stack = self.parent, self.trace, self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            trace.append(self.trace_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def install(self):
        for target in self.targets:
            original = resolve(target)
            if original is None:
                self.absent.append(target)
                continue
            self._patches.replace(original, self._wrap(target, original))

    def uninstall(self):
        self._patches.restore()

    def summary(self, lo=0, hi=None):
        """Per target over spans lo..hi-1: calls, total_s, self_s and
        outermost_s (summed duration of spans with no enclosing span of the
        same name)."""
        hi = len(self.names) if hi is None else hi
        child = {}
        for i in range(lo, hi):
            p = self.parent[i]
            child[p] = child.get(p, 0) + self.end[i] - self.start[i]
        out = {t: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outermost_s": 0.0}
               for t in self.targets if t not in self.absent}
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            s = out[self.names[i]]
            s["calls"] += 1
            s["total_s"] += dur * 1e-9
            s["self_s"] += (dur - child.get(i, 0)) * 1e-9
            p = self.parent[i]
            while p >= 0 and self.names[p] != self.names[i]:
                p = self.parent[p]
            if p < 0:
                s["outermost_s"] += dur * 1e-9
        return out

    def summary_under(self, name):
        """One summary per span called ``name``, in call order, over the
        spans it encloses (they follow it contiguously in the lists)."""
        out = []
        for r in range(len(self.names)):
            if self.names[r] == name:
                hi = r + 1
                while hi < len(self.names) and self.start[hi] < self.end[r]:
                    hi += 1
                out.append(self.summary(r + 1, hi))
        return out

    def write(self, path):
        index = {name: k for k, name in enumerate(self.targets)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "trace_id"],
                       "names": self.targets, "absent": self.absent}, fh)
            fh.write("\n")
            for i in range(len(self.names)):
                fh.write(json.dumps([index[self.names[i]], self.start[i], self.end[i],
                                     self.parent[i], self.trace[i]]) + "\n")
