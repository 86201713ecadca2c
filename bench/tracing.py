"""Outside-in tracing of zetazeros at its module boundaries.

The benchmark never edits the library.  Instead it rebinds the names one
module imports from another (``zetazeros.zeros.eval_expr``,
``zetazeros.expr.riemann_zeta``, ...) to wrappers that record a span per
call: name, start, end and parent span.  Spans stay in memory until the end
of a pass, where they are reduced to per-layer figures and kept as compact
arrays for the trace file written when the run ends.

A layer's self time is the time inside its spans minus the time covered by
their child spans.  Only cross-module bindings are wrapped, so a zeta span
is always one call entering the zeta layer.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("zeta", "families", "expr", "zeros")

# (module, attribute, span name).  The span name's prefix is its layer.
BOUNDARIES = (
    ("zetazeros.zeros", "localize_zeros", "zeros.localize_zeros"),
    ("zetazeros.zeros", "density_scan", "zeros.density_scan"),
    ("zetazeros.zeros", "critical_line_check", "zeros.critical_line_check"),
    ("zetazeros.zeros", "eval_expr", "expr.eval_expr"),
    ("zetazeros.zeros", "pole_set", "expr.pole_set"),
    ("zetazeros.expr", "parse_expr", "expr.parse_expr"),
    ("zetazeros.expr", "eval_expr", "expr.eval_expr"),
    ("zetazeros.expr", "pole_set", "expr.pole_set"),
    ("zetazeros.expr", "riemann_zeta", "zeta.riemann_zeta"),
    ("zetazeros.expr", "hurwitz_zeta", "zeta.hurwitz_zeta"),
    ("zetazeros.expr", "completed_zeta", "zeta.completed_zeta"),
    ("zetazeros.expr", "ez_diagonal", "families.ez_diagonal"),
    ("zetazeros.expr", "barnes_zeta", "families.barnes_zeta"),
    ("zetazeros.expr", "sphere_spectral", "families.sphere_spectral"),
    ("zetazeros.expr", "symmat_zeta", "families.symmat_zeta"),
    ("zetazeros.families", "riemann_zeta", "zeta.riemann_zeta"),
    ("zetazeros.families", "hurwitz_zeta", "zeta.hurwitz_zeta"),
    ("zetazeros.families", "hurwitz_zeta_shifted", "zeta.hurwitz_zeta_shifted"),
)

ROOT = "bench.pass"


class EvalCounter:
    """Counts the evaluations the zero engine requests, total and distinct."""

    def __init__(self):
        self.calls = 0
        self.points: set[complex] = set()

    def __call__(self, args, kwargs):
        self.calls += 1
        self.points.add(complex(args[1] if len(args) > 1 else kwargs["s"]))

    def snapshot(self) -> dict:
        distinct = len(self.points)
        return {
            "eval_calls": self.calls,
            "eval_distinct": distinct,
            "repeat_ratio": 1.0 - distinct / self.calls if self.calls else 0.0,
        }


def _rebind(bindings):
    """Apply (module, attr, new) bindings; returns the undo list."""
    undo = []
    for mod_name, attr, new in bindings:
        mod = importlib.import_module(mod_name)
        undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)
    return undo


def _restore(undo):
    for mod, attr, old in reversed(undo):
        setattr(mod, attr, old)


@contextmanager
def counting_evals(counter: EvalCounter):
    """Count zero-engine evaluations without recording spans."""
    mod = importlib.import_module("zetazeros.zeros")
    inner = getattr(mod, "eval_expr", None)
    if inner is None:           # the engine no longer evaluates through it
        yield counter
        return

    def counted(*args, **kwargs):
        counter(args, kwargs)
        return inner(*args, **kwargs)

    undo = _rebind([("zetazeros.zeros", "eval_expr", counted)])
    try:
        yield counter
    finally:
        _restore(undo)


class Tracer:
    """Span recorder installed over BOUNDARIES for the duration of a pass."""

    def __init__(self):
        self.names: list[str] = [ROOT] + sorted({b[2] for b in BOUNDARIES})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = [-1]
        self.errors = [0] * len(self.names)
        self.missing: set[str] = set()
        self.passes: list[dict] = []      # per-pass arrays, for the trace file

    def _wrap(self, fn, name_id: int, hook):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            if hook is not None:
                hook(args, kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name_id] += 1
                raise
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return traced

    @contextmanager
    def installed(self, counter: EvalCounter | None = None):
        """Wrap every boundary that still exists; absent names report 0."""
        bindings = []
        for mod_name, attr, span in BOUNDARIES:
            fn = getattr(importlib.import_module(mod_name), attr, None)
            if fn is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            hook = counter if (mod_name, attr) == ("zetazeros.zeros", "eval_expr") else None
            bindings.append((mod_name, attr, self._wrap(fn, self._ids[span], hook)))
        undo = _rebind(bindings)
        try:
            yield self
        finally:
            _restore(undo)

    @contextmanager
    def root(self):
        """Span covering one whole pass, so that self times sum to its wall."""
        sid = len(self._start)
        self._name.append(self._ids[ROOT])
        self._parent.append(-1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._end[sid] = time.perf_counter()
            self._stack.pop()

    def end_pass(self) -> dict:
        """Reduce the spans recorded since the last call to per-name figures."""
        name = np.asarray(self._name, dtype=np.int32)
        parent = np.asarray(self._parent, dtype=np.int64)
        start = np.asarray(self._start)
        dur = np.asarray(self._end) - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by_name = np.bincount(name, weights=self_time, minlength=k)
        wall = float(dur[name == self._ids[ROOT]].sum())
        self.passes.append({"name": name, "parent": parent.astype(np.int32),
                            "start": start - start.min() if len(start) else start,
                            "dur": dur})
        for lst in (self._name, self._parent, self._start, self._end):
            del lst[:]
        errors = {n: self.errors[i] for i, n in enumerate(self.names)}
        self.errors[:] = [0] * k
        return {
            "wall_s": wall,
            "spans": int(len(dur)),
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_by_name[i]) for i, n in enumerate(self.names)},
            "errors": errors,
        }

    def write(self, path) -> None:
        """Write every recorded span: name table plus per-pass arrays."""
        arrays = {"names": np.asarray(self.names)}
        for i, p in enumerate(self.passes):
            for key, arr in p.items():
                arrays[f"pass{i}_{key}"] = arr
        np.savez_compressed(path, **arrays)


def layer_figures(p: dict) -> dict:
    """Per-layer self time and entry counts from one reduced pass."""
    out = {}
    for layer in LAYERS:
        names = [n for n in p["calls"] if n.split(".", 1)[0] == layer]
        out[layer] = {
            "calls": sum(p["calls"][n] for n in names),
            "self_s": sum(p["self_s"][n] for n in names),
        }
    return out
