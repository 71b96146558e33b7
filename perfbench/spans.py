"""Spans around the calls into polyprocure's layers, and the per-layer
metrics read off them.

A Tracer wraps every public function of every polyprocure module under
each name a module imported it by (procurement calls `solve_lp` through
its own global, the CLI calls `solve_oracle` through its own, and so on),
records one span per call, and restores the originals on exit.  A layer is
the module that defines the function.
"""

import functools
import inspect
import statistics
import sys
import time


class Span:
    __slots__ = ("job", "layer", "name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, job, layer, name, parent):
        self.job, self.layer, self.name, self.parent = job, layer, name, parent
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def to_json(self, ids):
        return {"job": self.job, "layer": self.layer, "name": self.name,
                "parent": None if self.parent is None else ids[id(self.parent)],
                "start": self.start, "end": self.end, "attrs": self.attrs}


def _lp_size(span, args, result):
    lp = args[0]
    infeasible = (not result.feasible if hasattr(result, "feasible")
                  else result.status.value == "infeasible")
    span.attrs = {"rows": lp.b_eq.size + lp.b_le.size, "vars": lp.n_vars,
                  "infeasible": infeasible}


# (layer, function) -> what to record from the call's arguments and result
_OBSERVE = {
    ("lp", "solve_lp"): _lp_size,
    ("lp", "check_feasible"): _lp_size,
    ("procurement", "minkowski_demand"):
        lambda span, args, res: setattr(span, "attrs", {"vertices": res.n_vertices}),
    ("causal", "build_scenario_tree"):
        lambda span, args, res: setattr(span, "attrs", {"nodes": res.n_nodes}),
}


class Tracer:
    def __init__(self, package="polyprocure"):
        self.package = package
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []   # (module, name, original)

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        observe = _OBSERVE.get((layer, name))
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self.job, layer, name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                spans.append(span)
            if observe:
                observe(span, args, result)
            return result
        return traced

    def __enter__(self):
        wrappers = {}
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith(prefix):
                continue
            for name, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__.startswith(prefix)):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value)
                    setattr(module, name, wrappers[value])
                    self._patched.append((module, name, value))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        return False

    def dump(self):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_json(ids) for s in self.spans]


def layer_metrics(spans):
    """The per-layer metrics, summed over every traced job."""
    def pick(layer, name=None):
        return [s for s in spans
                if s.layer == layer and (name is None or s.name == name)]

    def total(items, attr="duration"):
        return sum(getattr(s, attr) for s in items)

    solves, feas = pick("lp", "solve_lp"), pick("lp", "check_feasible")
    lp_calls = solves + feas
    sized = [s.attrs for s in lp_calls if s.attrs]
    enum, contains = pick("procurement", "minkowski_demand"), pick("polytope", "contains_point")
    trees = pick("causal", "build_scenario_tree")
    m = {
        "lp.solve_calls": (len(solves), "count"),
        "lp.solve_s": (total(solves), "s"),
        "lp.feasible_calls": (len(feas), "count"),
        "lp.feasible_s": (total(feas), "s"),
        "lp.infeasible_calls": (sum(a["infeasible"] for a in sized), "count"),
        "lp.call_p50_ms": (1e3 * statistics.median(s.duration for s in lp_calls)
                           if lp_calls else 0.0, "ms"),
        "lp.rows_max": (max((a["rows"] for a in sized), default=0), "count"),
        "lp.vars_max": (max((a["vars"] for a in sized), default=0), "count"),
        "lp.cells_m": (sum(a["rows"] * a["vars"] for a in sized) / 1e6, "Mcells"),
        "procurement.calls": (len(pick("procurement")), "count"),
        "procurement.self_s": (total(pick("procurement"), "self_s"), "s"),
        "polytope.enum_s": (total(enum), "s"),
        "polytope.vertices": (sum(s.attrs["vertices"] for s in enum), "count"),
        "polytope.contains_calls": (len(contains), "count"),
        "polytope.contains_self_s": (total(contains, "self_s"), "s"),
        "causal.tree_s": (total(trees), "s"),
        "causal.tree_nodes": (sum(s.attrs["nodes"] for s in trees), "count"),
        "causal.self_s": (total(pick("causal"), "self_s"), "s"),
        "demandset.curve_s": (total(pick("demandset", "coverage_curve")), "s"),
        "costalloc.allocate_s": (total(pick("costalloc", "allocate_cost")), "s"),
        "costalloc.audit_s": (total(pick("costalloc", "audit_axioms")), "s"),
        "cli.self_s": (total(pick("cli"), "self_s"), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
