"""Spans and counts around smetriclab's layers, patched in from outside.

A span records name, start, end and parent.  Each layer function is
replaced where it is looked up: ``runner`` and ``cli`` import their
callees into their own namespaces, so the kernels are patched there, and
the S-metric and map classes are patched on each subclass.  Self time is a
span's duration minus the time its child spans cover.  Spans are kept in
memory for the first traced op only and written when the run ends;
per-name totals are kept for every traced op, scaled by the factors the
caller passes to ``fold``.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


def _pair_count(fn, args, kwargs) -> int:
    pairs = _argument(fn, args, kwargs, "pairs")
    if pairs is not None:
        return len(pairs)
    return len(_argument(fn, args, kwargs, "space")) ** 2


def _condition_i_counts(fn, args, kwargs, result):
    return {"contraction.condition_i.pairs": _pair_count(fn, args, kwargs)}


def _condition_ii_counts(fn, args, kwargs, result):
    grid, violations = result
    return {
        "contraction.condition_ii.window_tests":
            len(grid) * _pair_count(fn, args, kwargs),
        "contraction.condition_ii.violations": len(violations),
    }


def _fixed_circle_counts(fn, args, kwargs, result):
    points = _argument(fn, args, kwargs, "sample") or _argument(fn, args, kwargs, "space")
    return {"circles.fixed_circle.points": len(points)}


def _load_counts(fn, args, kwargs, spec):
    nodes = len(spec.space) if spec.space.kind == "real_grid" else 0
    return {"experiment.grid_nodes": nodes}


# runner attribute -> (span name, counts taken from the call and its result)
KERNELS = {
    "check_axioms": ("space.axioms", lambda f, a, k, r: {
        "space.axioms.quadruples": r.quadruples_checked}),
    "check_symmetry": ("space.symmetry", None),
    "check_triangle": ("space.triangle", None),
    "generating_metric_check": ("space.generated", None),
    "verify_condition_i": ("contraction.condition_i", _condition_i_counts),
    "condition_ii_probe": ("contraction.condition_ii", _condition_ii_counts),
    "picard": ("solver.picard", lambda f, a, k, r: {
        "solver.picard_steps": len(r.alphas)}),
    "fix_set": ("solver.fix_set", None),
    "discontinuity_criterion": ("solver.discontinuity", None),
    "verify_zamfirescu_x0": ("circles.zamfirescu", None),
    "check_fixed_circle": ("circles.fixed_circle", _fixed_circle_counts),
}


class Tracer:
    """Collects spans, self times and counts while its patches are installed."""

    def __init__(self):
        self.total = defaultdict(float)   # span name -> scaled seconds
        self.self_time = defaultdict(float)
        self._op_total = defaultdict(float)  # unscaled, since the last fold
        self._op_self = defaultdict(float)
        self.calls = Counter()            # span or counted name -> calls
        self.calls_in = Counter()         # (kernel span, span name) -> calls
        self.counts = Counter()           # counts reported by hooks
        self.spans: list[tuple] = []      # (id, parent, name, start, end)
        self.recording = False
        self._stack: list[list] = []      # [name, start, child seconds, id, outer kernel]
        self._kernel: str | None = None
        self._next_id = 0

    def enter(self, name: str, kernel: bool = False) -> None:
        self.calls[name] += 1
        if self._kernel is not None:
            self.calls_in[self._kernel, name] += 1
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id, self._kernel])
        if kernel:
            self._kernel = name

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, span_id, outer = self._stack.pop()
        duration = end - start
        self._op_total[name] += duration
        self._op_self[name] += duration - child
        self._kernel = outer
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if self.recording:
            self.spans.append((span_id, parent, name, start, end))

    def fold(self, factor: float) -> None:
        """Add the span times since the last fold, multiplied by ``factor``."""
        for into, times in ((self.total, self._op_total), (self.self_time, self._op_self)):
            for name, seconds in times.items():
                into[name] += seconds * factor
            times.clear()

    def span(self, name, fn, kernel=False, hook=None):
        """``fn`` wrapped in a span; ``hook`` adds counts from its result."""
        def traced(*args, **kwargs):
            self.enter(name, kernel)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                self.counts.update(hook(fn, args, kwargs, result))
            return result
        return traced

    def counted(self, name, fn):
        """``fn`` wrapped to count calls only, for functions too hot to span."""
        def counting(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counting

    def _patches(self):
        from smetriclab import cli, expr, mapping, runner, space

        yield expr.Formula, "__call__", lambda f: self.span("expr.formula", f)
        for cls in (space.TableSMetric, space.FormulaSMetric, space.GeneratedSMetric):
            yield cls, "triple", lambda f: self.span("space.s", f)
        for cls in (mapping.TableMapping, mapping.FormulaMapping, mapping.PowerMapping):
            yield cls, "apply", lambda f: self.span("mapping.apply", f)
        for attribute in ("coerce", "resolve"):
            yield space.Space, attribute, lambda f: self.counted("space.resolve", f)
        yield cli, "load_experiment", lambda f: self.span(
            "experiment.load", f, hook=_load_counts)
        yield cli, "run", lambda f: self.span("runner.run", f)
        for attribute, (name, hook) in KERNELS.items():
            yield runner, attribute, (
                lambda f, name=name, hook=hook: self.span(name, f, True, hook))

    @contextmanager
    def installed(self):
        """Patch every layer for the duration of the block, then restore."""
        originals = []
        try:
            for owner, attribute, wrap in self._patches():
                original = vars(owner)[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, wrap(original))
            yield
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)
