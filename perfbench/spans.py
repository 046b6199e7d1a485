"""Spans around the public functions of hardy3q's modules, installed from outside.

``Tracer.install`` replaces every public function defined in a layer module
with a timing wrapper, in every ``hardy3q`` namespace that holds it (the
defining module, modules that imported the name, and the package), so calls
between modules are seen as well as calls from the benchmark.  Nothing in
the package's source changes; ``uninstall`` puts the originals back.

A span is (name, start, end, parent, operation); spans live in flat arrays
in memory and are written out by ``save`` when the run ends.  A span's self
time is its duration minus the durations of its child spans, which in one
thread are nested inside it.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import types
from array import array

import numpy as np

PACKAGE = "hardy3q"
LAYERS = ("cli", "visibility", "hardy", "bell", "observables", "states", "linalg")
#: spans whose tracemalloc peak and first-argument length are recorded
ALLOC_PROBED = frozenset({"states.classify_batch"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.stack: list[int] = []
        self.op = -1
        #: (rows, tracemalloc peak in bytes) per probed call
        self.alloc_probes: list[tuple[int, int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for attr, obj in vars(module).items():
                    if (
                        isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                    ):
                        self._wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        starts, ends = self.span_start, self.span_end
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        stack = self.stack
        probed = name in ALLOC_PROBED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if probed:
                tracemalloc.start()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if probed:
                    self.alloc_probes.append((len(args[0]), tracemalloc.get_traced_memory()[1]))
                    tracemalloc.stop()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return wrapper

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Per span: name index, parent index (-1 at the top), duration, self time."""
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        duration = np.array(self.span_end) - np.array(self.span_start)
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        return name, parent, duration, duration - covered

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int64),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            parent=np.array(self.span_parent, dtype=np.int64),
            op=np.array(self.span_op, dtype=np.int64),
        )
