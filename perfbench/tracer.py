"""Per-layer timing from outside the program.

``Tracer.install`` wraps every public function of the layer modules and
rebinds every name in the package that refers to one of them, including
names bound by ``from ... import`` such as ``dijoin.scc_of_arcs``.  Each
call is a span; a span's self time is its duration minus the durations of
the spans it contains.  A generator function is timed over its whole
iteration: every resumption is a span of its own, so the consumer's work
between two items is not counted.  Only per-function totals are kept, so
memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "orient_augment"
LAYER_MODULES = (
    "plane_graph", "strongconn", "face_analysis", "supports",
    "completion_enum", "dijoin", "solvers", "pog_io", "enumerate_plane",
)
# Constant-time helpers called once per pair of chords or darts: a wrapper
# would cost more than they do, so their time stays in the caller's.
UNWRAPPED = {"tail_dart", "head_dart", "dart_arc", "dart_is_tail", "twin",
             "chords_cross"}

CALLS, TOTAL, SELF, YIELDED, RETURNED, TRUTHY, DEPTH = range(7)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.yielded_to: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []   # open spans: [child seconds, name]
        self._undo: list[tuple[object, str, object]] = []

    # -- reading -------------------------------------------------------------

    def take(self) -> tuple[dict, dict]:
        """Per-function totals and per-(generator, consumer) item counts so
        far, and a fresh start."""
        table = {
            name: {"calls": r[CALLS], "s": r[TOTAL], "self_s": r[SELF],
                   "yielded": r[YIELDED], "returned": r[RETURNED],
                   "truthy": r[TRUTHY]}
            for name, r in sorted(self.stats.items()) if r[CALLS]
        }
        yielded_to = dict(self.yielded_to)
        for row in self.stats.values():
            row[:DEPTH] = [0, 0.0, 0.0, 0, 0, 0]
        self.yielded_to.clear()
        return table, yielded_to

    # -- wrapping ------------------------------------------------------------

    def _row(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0, 0, 0])

    def _wrap(self, name: str, fn):
        row = self._row(name)
        stack = self._stack
        clock = time.perf_counter

        def close(frame, t0):
            d = clock() - t0
            stack.pop()
            if stack:
                stack[-1][0] += d
            row[SELF] += d - frame[0]
            row[DEPTH] -= 1
            if not row[DEPTH]:  # outermost call of a recursion
                row[TOTAL] += d

        if inspect.isgeneratorfunction(fn):
            yielded_to = self.yielded_to

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                row[CALLS] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [0.0, name]
                        stack.append(frame)
                        row[DEPTH] += 1
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close(frame, t0)
                        row[YIELDED] += 1
                        key = (name, stack[-1][1] if stack else "")
                        yielded_to[key] = yielded_to.get(key, 0) + 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row[CALLS] += 1
            frame = [0.0, name]
            stack.append(frame)
            row[DEPTH] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, t0)
            if result:
                row[TRUTHY] += 1
                if type(result) is list:
                    row[RETURNED] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        pg = importlib.import_module(f"{PACKAGE}.plane_graph")
        method = pg.PlaneDigraph.completion_from_darts
        self._undo.append((pg.PlaneDigraph, "completion_from_darts", method))
        pg.PlaneDigraph.completion_from_darts = self._wrap(
            "plane_graph.completion_from_darts", method
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
