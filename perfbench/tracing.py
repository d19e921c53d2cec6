"""Spans around vortexlab's public functions, installed from outside.

The program is not edited: every public function of every vortexlab module
is replaced by a timing wrapper in each module namespace that holds it (the
modules import one another with ``from .x import y``, so the defining module
alone is not enough).  ``PatchedPreconditioner`` stays a class; only its
``__init__`` and ``apply_symmetric`` are wrapped.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written out
once the run ends.  A span's self time is its duration minus the durations of
its direct children; calls are strictly nested because the benchmark has a
single caller, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("cli", "experiments", "fields", "modgraph", "quasimap", "solver",
           "surface", "target")

#: methods wrapped in place, as (module, class, method)
METHODS = (
    ("solver", "PatchedPreconditioner", "__init__"),
    ("solver", "PatchedPreconditioner", "apply_symmetric"),
)

#: the root span: everything one operation does happens inside it
ROOT = "cli.run"


class Tracer:
    """Collects spans and per-solve records for the operations it is told of."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None          # label of the operation running now
        self.solves = []        # one record per newton_solve that returned
        self.cg_iterations = 0
        self.jacobian_sites = 0
        self.field_bytes = 0
        self.artifact_bytes = 0

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- counters recorded where the work happens -----------------------------

    def _after_newton(self, args, result):
        f, report = args[0], result[2]
        necks = f.piece.necks
        problem = self.op if not necks else f"{self.op}-L{necks[0].length:g}"
        self.solves.append({
            "problem": problem,
            "shape": [f.piece.n_r, f.piece.n_theta],
            "newton_iterations": report.newton_iterations,
            "cg_iterations": list(report.cg_iterations),
        })

    def _after_cg(self, args, result):
        self.cg_iterations += int(result[1])

    def _after_jacobian(self, args, result):
        self.jacobian_sites += args[0].piece.n_r * args[0].piece.n_theta

    def _after_save_field(self, args, result):
        self.field_bytes += os.path.getsize(args[1]) + os.path.getsize(args[2])

    def _after_emit_report(self, args, result):
        self.artifact_bytes += sum(os.path.getsize(p) for p in result.values())

    AFTER = {
        "solver.newton_solve": _after_newton,
        "solver.cg_solve": _after_cg,
        "solver.gauge_step_jacobian_apply": _after_jacobian,
        "fields.save_field": _after_save_field,
        "cli.emit_report": _after_emit_report,
    }

    def install(self):
        """Wrap every public function and the listed methods; returns a
        callable that restores the originals."""
        mods = {m: importlib.import_module(f"vortexlab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrapped[fn] = self.wrap(name, fn, self.AFTER.get(name))
        undo = []
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
                    undo.append((mod, attr, val))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))
            undo.append((cls, meth, fn))

        def restore():
            for owner, attr, val in reversed(undo):
                setattr(owner, attr, val)

        return restore


def span_times(spans):
    """Per span name: calls, total (outermost occurrences only) and self
    time; per layer: total (outermost spans of the layer) and self time."""
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    by_layer = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        dur = t1 - t0
        layer = name.split(".", 1)[0]
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += dur - child[i]
        by_layer[layer]["self_s"] += dur - child[i]
        inside_same, inside_layer = False, False
        p = parent
        while p >= 0:
            pname = spans[p][0]
            inside_same = inside_same or pname == name
            inside_layer = inside_layer or pname.split(".", 1)[0] == layer
            p = spans[p][3]
        if not inside_same:
            entry["s"] += dur
        if not inside_layer:
            by_layer[layer]["s"] += dur
    return dict(by_name), dict(by_layer)


def calls_by_op(spans, name):
    out = defaultdict(int)
    for sname, _, _, _, op in spans:
        if sname == name:
            out[op] += 1
    return dict(out)
