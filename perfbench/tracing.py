"""Spans and call counts around the optdeg layers, patched in from outside.

`Tracer.install` wraps the public functions of each layer module, and
`PolyMatrix.minors`, rebinding every module attribute that refers to the
original, so calls through `from .groebner import saturate` are seen as well.
Each call records a span (name, start, end, parent, job id) in memory.
`counting` instead replaces the monomial-packer and field-arithmetic methods
with bare counters: they run millions of times, and spans around them would
distort the span timings.  Both restore every patched name on exit.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "parsing", "matrices", "groebner", "critical", "conormal",
          "towers", "formulas")
# a coercion helper entered by nearly every function; a span each would only
# add overhead
UNTRACED = {"groebner.as_budget"}
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div", "is_zero", "from_int",
             "fraction")
PACKER_OPS = ("pack", "unpack", "lcm")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, start, end, parent, job, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.attrs = attrs

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.job,
                self.attrs]


def _rebind(original, replacement, undo):
    for mod in [m for k, m in sys.modules.items()
                if k == "optdeg" or k.startswith("optdeg.")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def _attrs_hook(name):
    """How a span of `name` calls through and what it records about the call,
    read from outside: a function (call, args, kwargs) -> (result, attrs)."""
    if name == "groebner.groebner_basis":
        from optdeg.groebner import as_budget, groebner_basis
        params = inspect.signature(groebner_basis)

        def around(call, args, kwargs):
            bound = params.bind(*args, **kwargs)
            budget = as_budget(bound.arguments.get("budget"))
            bound.arguments["budget"] = budget
            before = budget.remaining
            result = call(*bound.args, **bound.kwargs)
            return result, {"reductions": before - budget.remaining,
                            "basis_len": len(result)}
        return around
    if name == "groebner.degree_zero_dim":
        return _result_attr("count", lambda r: r)
    if name == "matrices.PolyMatrix.minors":
        return _result_attr("minors", len)
    if name in ("critical.algebraic_degree", "critical.projective_pnorm_degree"):
        return _result_attr("trials", lambda r: len(r.trials))
    return None


def _result_attr(key, measure):
    def around(call, args, kwargs):
        result = call(*args, **kwargs)
        return result, {key: measure(result)}
    return around


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def wrap(self, name, fn, around=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), None, stack[-1] if stack else -1,
                        self.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                result, span.attrs = around(fn, args, kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        import optdeg.matrices
        undo = []
        try:
            for layer in LAYERS:
                mod = sys.modules[f"optdeg.{layer}"]
                for attr, fn in list(vars(mod).items()):
                    name = f"{layer}.{attr}"
                    if (attr.startswith("_") or name in UNTRACED
                            or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    _rebind(fn, self.wrap(name, fn, _attrs_hook(name)), undo)
            cls = optdeg.matrices.PolyMatrix
            name = "matrices.PolyMatrix.minors"
            cls.minors = self.wrap(name, cls.minors, _attrs_hook(name))
            undo.append((cls, "minors", cls.minors.__wrapped__))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)


@contextmanager
def counting():
    """Count calls of the packer and field methods; yields the counts dict,
    complete once the block exits."""
    from optdeg.fields import PrimeField, RationalField
    from optdeg.rings import MonomialPacker
    cells = {}
    undo = []

    def counted(cls, attr, key):
        original = vars(cls)[attr]
        cell = cells.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return original(*args, **kwargs)
        setattr(cls, attr, wrapper)
        undo.append((cls, attr, original))

    counts = {}
    try:
        counted(MonomialPacker, "__init__", "packers")
        for op in PACKER_OPS:
            counted(MonomialPacker, op, f"{op}_calls")
        for cls in (RationalField, PrimeField):
            for op in FIELD_OPS:
                counted(cls, op, "field_ops")
        yield counts
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
        counts.update({k: cell[0] for k, cell in cells.items()})


# -- aggregation ---------------------------------------------------------------

def self_times(spans):
    """Per span: its duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _outermost(spans, same):
    out = []
    for span in spans:
        if not same(span):
            continue
        p = span.parent
        while p >= 0 and not same(spans[p]):
            p = spans[p].parent
        if p < 0:
            out.append(span)
    return out


def outermost(spans, name):
    """Spans called `name` with no ancestor of the same name."""
    return _outermost(spans, lambda s: s.name == name)


def _layer(span):
    return span.name.split(".", 1)[0]


def _layer_spans(spans, layer):
    return [s for s in spans if _layer(s) == layer]


def _layer_time(spans, layer):
    """Wall time inside the layer: spans with no ancestor in the layer."""
    return _total(_outermost(spans, lambda s: _layer(s) == layer))


def _total(spans):
    return sum((s.end - s.start for s in spans), 0.0)


def _attr_sum(spans, name, key):
    return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)


def layer_metrics(spans):
    """The span-derived per-layer metrics (values only)."""
    selfs = self_times(spans)
    self_s = {}
    for span, t in zip(spans, selfs):
        self_s[_layer(span)] = self_s.get(_layer(span), 0.0) + t
    gb = [s for s in spans if s.name == "groebner.groebner_basis"]
    gb_s = _total(gb)
    reductions = _attr_sum(spans, "groebner.groebner_basis", "reductions")
    m = {
        "groebner.gb_runs": len(gb),
        "groebner.gb_s": gb_s,
        "groebner.reductions": reductions,
        "groebner.reductions_per_s": reductions / gb_s if gb_s else 0.0,
    }
    for op in ("saturate", "eliminate", "intersect"):
        top = outermost(spans, f"groebner.{op}")
        m[f"groebner.{op}_calls"] = sum(1 for s in spans
                                        if s.name == f"groebner.{op}")
        m[f"groebner.{op}_s"] = _total(top)
    m["groebner.dimension_s"] = _total(outermost(spans, "groebner.dimension"))
    m["groebner.count_s"] = _total(outermost(spans, "groebner.degree_zero_dim"))
    m["groebner.std_monomials"] = _attr_sum(spans, "groebner.degree_zero_dim",
                                            "count")
    m["groebner.max_basis_len"] = max(
        (s.attrs["basis_len"] for s in gb if s.attrs), default=0)
    m["conormal.self_s"] = self_s.get("conormal", 0.0)
    # one Groebner run per random slice, started by bidegree_class itself
    m["conormal.slices"] = sum(
        1 for s in gb if s.parent >= 0
        and spans[s.parent].name == "conormal.bidegree_class")
    m["critical.self_s"] = self_s.get("critical", 0.0)
    m["critical.trials"] = sum(
        _attr_sum(spans, n, "trials") for n in
        ("critical.algebraic_degree", "critical.projective_pnorm_degree"))
    m["matrices.minors"] = _attr_sum(spans, "matrices.PolyMatrix.minors",
                                     "minors")
    m["matrices.minors_s"] = _total(outermost(spans,
                                              "matrices.PolyMatrix.minors"))
    m["parsing.calls"] = len(_layer_spans(spans, "parsing"))
    m["parsing.s"] = _layer_time(spans, "parsing")
    m["cli.self_s"] = self_s.get("cli", 0.0)
    m["towers.s"] = _layer_time(spans, "towers")
    m["formulas.calls"] = len(_layer_spans(spans, "formulas"))
    return m


def job_reductions(spans):
    """Reduction steps of all Groebner runs, per job id."""
    out = {}
    for s in spans:
        if s.name == "groebner.groebner_basis" and s.attrs:
            out[s.job] = out.get(s.job, 0) + s.attrs["reductions"]
    return out


def job_walls(spans):
    """Wall time of each job's root span, per job id."""
    return {s.job: s.end - s.start for s in spans if s.parent < 0}
