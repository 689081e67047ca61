"""Spans around the package's public functions, recorded from outside.

A traced run process wraps each target below where its callers look it up:
a module-level function is replaced in every `freejordan` module that holds
it (so `operad.clifton_matrix`, imported by name from `symreps`, is caught),
and a method is replaced on its class.  Each call appends one span

    (span id, parent span id, name, start, end, fields)

to a list in memory; the parent is the innermost wrapped call open on the
same thread (0 at top level).  `write` stores the spans as JSON lines when
the run ends, and `layer_metrics` turns them into the per-layer metrics.

Nothing here is imported by the package; the untraced runs never load it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _rows(vectors) -> int:
    shape = getattr(vectors, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else int(shape[0])
    return len(vectors)


def _clifton_hit(mod, args):
    cache = getattr(mod, "_clifton_cache", None)
    return cache is not None and (args[0], args[1]) in cache


def _content_basis(mod, args, out, state):
    return {"basis": len(mod.normal_monomials(tuple(int(x) for x in args[0])))}


# (module, attribute, before(module, args) -> state,
#  after(module, args, result, state) -> fields); hooks may be None
TARGETS = (
    ("operad", "consequences", None, lambda m, a, out, s: {"n": a[0], "count": len(out)}),
    ("operad", "multiplicity", None, None),
    ("symreps", "clifton_matrix", _clifton_hit, lambda m, a, out, s: {"hit": s}),
    ("linalg", "RankAccumulator.add",
     lambda m, a: a[0].rank,
     lambda m, a, out, s: {"rows": _rows(a[1]), "gained": a[0].rank - s}),
    ("linalg", "ExactRowReducer.add", None, lambda m, a, out, s: {"gained": bool(out)}),
    ("multidegree", "relation_rows", None, lambda m, a, out, s: {"rows": len(out)}),
    ("multidegree", "multidegree_dim", None, _content_basis),
    ("multidegree", "component", None, lambda m, a, out, s: {"basis": len(out.span)}),
    ("twogen", "jordan_span_dim", None, None),
    ("lambda_ring", "solve_characters", None, None),
    ("lambda_ring", "GradedCharacter.__mul__", None, None),
    ("lambda_ring", "lambda_op", None, None),
    ("lambda_ring", "schur_decompose", None, None),
    ("series", "predict_dims", None, None),
    ("series", "check_sequence", None, None),
    ("tkk", "truncated_free_jordan", None, None),
    ("tkk", "tag", None, lambda m, a, out, s: {"dim": out.dim}),
    ("tkk", "b_space", None, None),
    ("tkk", "ce_homology", None, lambda m, a, out, s: {"words": sum(out.chain_dims)}),
    ("cache", "cache_get", None, lambda m, a, out, s: {"hit": out is not None}),
    ("cache", "cache_put", None, None),
    ("cli", "main", None, None),
)

# (metric, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = (
    ("operad.consequences_s", "s", "lower"),
    ("operad.generators", "count", "lower"),
    ("operad.multiplicity_self_s", "s", "lower"),
    ("operad.shapes", "count", "lower"),
    ("symreps.clifton_calls", "count", "lower"),
    ("symreps.clifton_s", "s", "lower"),
    ("symreps.clifton_cache_entries", "count", "lower"),
    ("symreps.clifton_hit_ratio", "ratio", "higher"),
    ("linalg.rank_add_calls", "count", "lower"),
    ("linalg.rank_add_s", "s", "lower"),
    ("linalg.rank_rows_in", "count", "lower"),
    ("linalg.rank_gained", "count", "lower"),
    ("linalg.rank_useful_ratio", "ratio", "higher"),
    ("linalg.exact_add_calls", "count", "lower"),
    ("linalg.exact_add_s", "s", "lower"),
    ("linalg.exact_useful_ratio", "ratio", "higher"),
    ("multidegree.relation_rows_s", "s", "lower"),
    ("multidegree.rows", "count", "lower"),
    ("multidegree.basis", "count", "lower"),
    ("multidegree.dim_self_s", "s", "lower"),
    ("multidegree.component_s", "s", "lower"),
    ("twogen.span_s", "s", "lower"),
    ("lambda_ring.solve_s", "s", "lower"),
    ("lambda_ring.mul_calls", "count", "lower"),
    ("lambda_ring.mul_s", "s", "lower"),
    ("lambda_ring.lambda_op_s", "s", "lower"),
    ("lambda_ring.schur_s", "s", "lower"),
    ("series.predict_s", "s", "lower"),
    ("series.check_s", "s", "lower"),
    ("tkk.truncate_s", "s", "lower"),
    ("tkk.tag_s", "s", "lower"),
    ("tkk.tag_self_s", "s", "lower"),
    ("tkk.b_space_s", "s", "lower"),
    ("tkk.homology_s", "s", "lower"),
    ("tkk.homology_self_s", "s", "lower"),
    ("tkk.lie_dim", "count", "lower"),
    ("tkk.chain_words", "count", "lower"),
    ("cache.misses", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.writes", "count", "lower"),
    ("cache.s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Wraps the targets in this process and collects their spans."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> None:
        for modname, attr, before, after in TARGETS:
            try:
                mod = importlib.import_module("freejordan." + modname)
            except ImportError:
                self.missing.append("%s.%s" % (modname, attr))
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, name, None) if holder is not None else None
            if fn is None:
                self.missing.append("%s.%s" % (modname, attr))
                continue
            wrapped = self._wrap("%s.%s" % (modname, attr), fn, mod, before, after)
            if owner:
                setattr(holder, name, wrapped)
                continue
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("freejordan"):
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)

    def _wrap(self, span_name, fn, mod, before, after):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            state = before(mod, args) if before else None
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            fields = after(mod, args, out, state) if after else None
            spans.append((sid, parent, span_name, t0, t1, fields))
            return out

        return wrapper

    def write(self, path: str, run_id: str, gauges: dict) -> None:
        """Spans as JSON lines, then one line of gauges read at the end."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, fields in self.spans:
                fh.write(json.dumps([run_id, sid, parent, name, t0, t1, fields]))
                fh.write("\n")
            fh.write(json.dumps({"run": run_id, "gauges": gauges, "missing": self.missing}))
            fh.write("\n")


def gauges() -> dict:
    """Sizes read once at the end of a traced run."""
    mod = sys.modules.get("freejordan.symreps")
    cache = getattr(mod, "_clifton_cache", None)
    return {"clifton_cache_entries": len(cache) if cache is not None else 0}


def read(path: str):
    spans, tail = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if isinstance(rec, dict):
                tail = rec
            else:
                spans.append(tuple(rec[1:]))
    return spans, tail


class _Agg:
    __slots__ = ("calls", "outer_s", "self_s", "fields")

    def __init__(self):
        self.calls = 0
        self.outer_s = 0.0
        self.self_s = 0.0
        self.fields = []


def layer_metrics(spans, gauge_values: dict, overhead_s: float) -> dict:
    """The PER_LAYER metrics from one traced run's spans.

    A name's `_s` sums its outermost spans (recursive calls are not counted
    twice); `_self_s` sums, over all its spans, the duration minus that of
    the direct child spans.  Fields are read from outermost spans.
    """
    name_of = {sid: name for sid, _p, name, _t0, _t1, _f in spans}
    parent_of = {sid: parent for sid, parent, *_rest in spans}
    child_s = defaultdict(float)
    for sid, parent, _name, t0, t1, _f in spans:
        if parent:
            child_s[parent] += t1 - t0
    agg = defaultdict(_Agg)
    for sid, parent, name, t0, t1, fields in spans:
        a = agg[name]
        a.calls += 1
        a.self_s += (t1 - t0) - child_s[sid]
        up = parent
        while up and name_of.get(up) != name:
            up = parent_of.get(up, 0)
        if not up:
            a.outer_s += t1 - t0
            if fields:
                a.fields.append(fields)

    def get(name):
        return agg.get(name) or _Agg()

    def total(name, field):
        return sum(f.get(field, 0) for f in get(name).fields)

    def ratio(num, den):
        return num / den if den else 0.0

    generators = {}
    for f in get("operad.consequences").fields:
        generators[f["n"]] = f["count"]
    clifton = get("symreps.clifton_matrix")
    rank_add = get("linalg.RankAccumulator.add")
    exact_add = get("linalg.ExactRowReducer.add")
    cache_get = get("cache.cache_get")
    hits = total("cache.cache_get", "hit")
    values = {
        "operad.consequences_s": get("operad.consequences").outer_s,
        "operad.generators": sum(generators.values()),
        "operad.multiplicity_self_s": get("operad.multiplicity").self_s,
        "operad.shapes": get("operad.multiplicity").calls,
        "symreps.clifton_calls": clifton.calls,
        "symreps.clifton_s": clifton.outer_s,
        "symreps.clifton_cache_entries": gauge_values.get("clifton_cache_entries", 0),
        "symreps.clifton_hit_ratio": ratio(total("symreps.clifton_matrix", "hit"), clifton.calls),
        "linalg.rank_add_calls": rank_add.calls,
        "linalg.rank_add_s": rank_add.outer_s,
        "linalg.rank_rows_in": total("linalg.RankAccumulator.add", "rows"),
        "linalg.rank_gained": total("linalg.RankAccumulator.add", "gained"),
        "linalg.rank_useful_ratio": ratio(
            total("linalg.RankAccumulator.add", "gained"),
            total("linalg.RankAccumulator.add", "rows"),
        ),
        "linalg.exact_add_calls": exact_add.calls,
        "linalg.exact_add_s": exact_add.outer_s,
        "linalg.exact_useful_ratio": ratio(
            total("linalg.ExactRowReducer.add", "gained"), exact_add.calls
        ),
        "multidegree.relation_rows_s": get("multidegree.relation_rows").outer_s,
        "multidegree.rows": total("multidegree.relation_rows", "rows"),
        "multidegree.basis": total("multidegree.multidegree_dim", "basis")
        + total("multidegree.component", "basis"),
        "multidegree.dim_self_s": get("multidegree.multidegree_dim").self_s,
        "multidegree.component_s": get("multidegree.component").outer_s,
        "twogen.span_s": get("twogen.jordan_span_dim").outer_s,
        "lambda_ring.solve_s": get("lambda_ring.solve_characters").outer_s,
        "lambda_ring.mul_calls": get("lambda_ring.GradedCharacter.__mul__").calls,
        "lambda_ring.mul_s": get("lambda_ring.GradedCharacter.__mul__").outer_s,
        "lambda_ring.lambda_op_s": get("lambda_ring.lambda_op").outer_s,
        "lambda_ring.schur_s": get("lambda_ring.schur_decompose").outer_s,
        "series.predict_s": get("series.predict_dims").outer_s,
        "series.check_s": get("series.check_sequence").outer_s,
        "tkk.truncate_s": get("tkk.truncated_free_jordan").outer_s,
        "tkk.tag_s": get("tkk.tag").outer_s,
        "tkk.tag_self_s": get("tkk.tag").self_s,
        "tkk.b_space_s": get("tkk.b_space").outer_s,
        "tkk.homology_s": get("tkk.ce_homology").outer_s,
        "tkk.homology_self_s": get("tkk.ce_homology").self_s,
        "tkk.lie_dim": total("tkk.tag", "dim"),
        "tkk.chain_words": total("tkk.ce_homology", "words"),
        "cache.misses": cache_get.calls - hits,
        "cache.hits": hits,
        "cache.writes": get("cache.cache_put").calls,
        "cache.s": cache_get.outer_s + get("cache.cache_put").outer_s,
        "cli.main_s": get("cli.main").outer_s,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _b in PER_LAYER}
