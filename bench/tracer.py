"""Spans around module-level functions, recorded from outside the program.

`Tracer.install` replaces a function named `module.attr` by a wrapper in every
loaded module that holds a reference to it, so calls through names bound by
`from .x import f` are recorded too. Each call becomes one span: id, parent
id, name, start, end, thread id and a few numeric attributes computed from
the arguments and the result. Spans stay in memory until the run ends.

A span opened on a thread whose own stack is empty (a pool worker) takes the
innermost open span of the main thread as its parent, so work handed to
threads is attributed to the call that submitted it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident

    def install(self, package, targets):
        """Wrap each target (module, attr, annotate, track_alloc).

        A target whose module or attribute does not exist is listed in
        `absent` and skipped; the remaining targets are still wrapped.
        """
        for module_name, attr, annotate, track_alloc in targets:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", fn, annotate,
                                 track_alloc)
            for name, loaded in list(sys.modules.items()):
                if name != package and not name.startswith(package + "."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is fn:
                        setattr(loaded, key, wrapper)

    def _stack(self):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return tid, stack

    def _wrap(self, name, fn, annotate, track_alloc):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid, stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) if tid != self._main else None
                parent = main[-1] if main else None
            span_id = next(self._ids)
            stack.append(span_id)
            alloc = track_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = {}
                if alloc:
                    attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if annotate is not None:
                    try:
                        attrs.update(annotate(args, kwargs, result))
                    except Exception as exc:  # a changed signature must not stop the run
                        attrs["annotate_error"] = repr(exc)
                self.spans.append({"id": span_id, "parent": parent,
                                   "name": name, "start": start, "end": end,
                                   "tid": tid, "attrs": attrs})
        return wrapper


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    last = None
    for start, end in sorted(intervals):
        if last is None or start > last:
            total += end - start
            last = end
        elif end > last:
            total += end - last
            last = end
    return total


def self_times(spans):
    """span id -> duration minus the part of it that its children cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: span["end"] - span["start"]
            - covered(children.get(span["id"], ())) for span in spans}
