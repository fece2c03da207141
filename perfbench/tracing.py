"""Outside-in tracing of ringlab's layers.

``Tracer.install()`` replaces the public functions of each ringlab module
with wrappers that record a span per call: name, start, end, parent span and
op id.  It also wraps the ``PROPERTY_CHECKS`` entries, every ``Rule.check``
returned by ``harness.rule_catalog`` and ``ReportCache.get``/``put``.  No
program file changes: the wrappers are put into the module namespaces at run
time, so every caller that looks a function up through a module (or through
a name it imported from one) reaches the wrapper.

Spans stay in memory and are written out by ``write_spans`` at the end.
Self time of a span is its duration minus the time its direct children
cover; a layer's self time is the sum over its spans.  The run is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
import weakref

LAYERS = ("cli", "exprs", "constructions", "core", "invariants",
          "properties", "harness", "cache")

# Element-level helpers called inside inner loops: a span there would cost
# more than the work it measures, so they run unwrapped and their time counts
# as self time of the caller.
UNWRAPPED = {
    "core": {"mask_from_indices", "mask_indices", "mask_contains",
             "mask_from_bool", "mask_to_bool", "mask_size", "neg", "sub",
             "power"},
    "constructions": {"matrix_index", "matrix_entries", "matrix_unit",
                      "triangular_index", "product_index", "poly_index"},
    "invariants": {"nilpotency_index"},
}

CONSTRUCTIONS = ("matrix_ring", "upper_triangular", "constant_diagonal",
                 "truncated_skew_poly", "example_weak_symmetric_component",
                 "direct_product", "corner", "quotient")
LATTICES = ("all_left_ideals", "all_right_ideals", "all_two_sided_ideals")
# properties whose decision is a scan over (a, b, c) triples, one n x n
# plane per a; the forms functions scan once per formulation
TRIPLE_SCANS = ("is_symmetric", "is_gws", "is_semicommutative",
                "weak_symmetric_forms", "nj_symmetric_forms")
STATUSES = ("pass", "vacuous", "skipped", "fail")


def _ring_of(result):
    """The ring a construction returned, or None (bimodules, helpers)."""
    if isinstance(result, tuple) and result:
        result = result[0]
    result = getattr(result, "ring", result)
    if hasattr(result, "mul") and hasattr(result, "order"):
        return result
    return None


def _triples(R, witnesses) -> int:
    """Triples a lexicographic scan visits: whole planes up to the witness."""
    n = R.order
    return sum(n ** 3 if w is None else (w["a"] + 1) * n * n
               for w in witnesses)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op)
        self.op = None
        self._ids = itertools.count()
        self._stack = []         # [span id, child time]
        self._depth = {}         # name -> nesting depth (outermost timing)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.incl_s = {}         # qualified name -> outermost inclusive time
        self.counts = {"cells": 0, "triples": 0, "calls": 0,
                       "evaluations": 0, "ideals": 0, "hits": 0,
                       "misses": 0}
        self.entries = dict.fromkeys(STATUSES, 0)
        self._lattices = {}      # id -> weakref, lattices already counted

    # -- spans ------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, post=()):
        qual = f"{layer}.{name}"
        spans, stack, depth = self.spans, self._stack, self._depth
        self_s, incl_s = self.self_s, self.incl_s
        ids, clock = self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            depth[qual] = depth.get(qual, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                depth[qual] -= 1
                if not depth[qual]:
                    incl_s[qual] = incl_s.get(qual, 0.0) + dur
                spans.append((sid, qual, t0, t1, parent, self.op))
            for count in post:
                count(result, *args)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, ringlab) -> None:
        """Wrap every layer of an imported ``ringlab`` package in place.

        There is no uninstall: a traced process ends with its run.
        """
        from ringlab import (cache, cli, constructions, core, exprs, harness,
                             invariants, properties)
        modules = {"cli": cli, "exprs": exprs,
                   "constructions": constructions, "core": core,
                   "invariants": invariants, "properties": properties,
                   "harness": harness, "cache": cache}
        posts = self._posts(properties.PROPERTY_CHECKS)
        wrapped = {}             # id(original) -> wrapper
        for layer, mod in modules.items():
            skip = UNWRAPPED.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in skip
                        or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = self.wrap(layer, name, obj,
                                             posts.get(name, ()))
        # every namespace that holds an original gets the wrapper, so names
        # imported with ``from .core import ...`` are traced as well
        for mod in list(modules.values()) + [ringlab]:
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)
        checks = properties.PROPERTY_CHECKS
        for name, fn in list(checks.items()):
            checks[name] = wrapped[id(fn)]
        catalog = harness.rule_catalog

        def rule_catalog(*args, **kwargs):
            rules = catalog(*args, **kwargs)
            for rule in rules:
                rule.check = self.wrap("harness", f"rule.{rule.id}",
                                       rule.check)
            return rules
        harness.rule_catalog = rule_catalog
        RC = cache.ReportCache
        RC.get = self.wrap("cache", "get", RC.get, [self._count_get])
        RC.put = self.wrap("cache", "put", RC.put)

    # -- counters at layer boundaries -------------------------------------

    def _posts(self, checks: dict) -> dict:
        c = self.counts

        def cells(result, *args):
            R = _ring_of(result)
            if R is not None:
                c["cells"] += R.order * R.order

        def scan(result, R, *args):
            if isinstance(result, tuple):            # *_forms: witnesses
                c["triples"] += _triples(R, result)
            elif result.method != "reduced":         # verdict
                c["triples"] += _triples(R, [result.witness])

        def lattice(result, *args):
            ref = self._lattices.get(id(result))
            if ref is None or ref() is not result:
                self._lattices[id(result)] = weakref.ref(result)
                c["ideals"] += len(result.ideals)

        def check_property(result, *args):
            c["calls"] += 1

        def run_rules(report, *args):
            for e in report.entries:
                self.entries[e.status] += 1

        def evaluation(result, *args):
            c["evaluations"] += 1

        posts = {name: [cells] for name in CONSTRUCTIONS + (
            "zmod", "subring_generated", "formal_triangular",
            "trivial_morita", "dorroh")}
        posts.update({name: [lattice] for name in LATTICES})
        posts.update({fn.__name__: [evaluation] for fn in checks.values()})
        for name in TRIPLE_SCANS:
            posts.setdefault(name, []).append(scan)
        posts["check_property"] = [check_property]
        posts["run_rules"] = [run_rules]
        return posts

    def _count_get(self, result, *args):
        self.counts["hits" if result is not None else "misses"] += 1

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for sid, name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "op": op}) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""
    def noop():
        return None
    traced = Tracer().wrap("core", "noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
