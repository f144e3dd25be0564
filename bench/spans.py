"""Spans around the public functions of each goodsgp layer, from outside.

`Tracer.install()` rebinds the public functions of the layer modules, in
every `goodsgp` module namespace that refers to them, to wrappers that
record one span per call: name, start, end, parent span and op id.  No
source file changes; `uninstall()` puts the originals back.  Spans stay in
memory until the run ends.

Per-point helpers (`ns_contains`, `gs_contains`, `fiber_reaches`, ...) are
left unwrapped: they run once per lattice point and a span each would cost
more than the work they do.  `plot`, `lattice` and `errors` are not layers.
"""

from __future__ import annotations

import inspect
import math
import sys
from time import perf_counter

LAYERS = ("cli", "constructions", "numerical", "semigroup", "gensys", "ideals", "arf", "oracle")
PER_POINT = {
    "numerical": {"ns_contains", "ideal_contains", "ns_element_at"},
    "semigroup": {"gs_contains", "fiber_reaches", "delta_fiber_nonempty", "border_axes"},
    "ideals": {"gi_contains"},
}
# functions whose arguments and results feed the size counters
SIZED = {"semigroup.validate_small_set", "semigroup.normalize_conductor",
         "gensys.minimal_generating_system", "gensys.monoid_fiber_reach",
         "ideals.sum_ideals", "arf.is_arf"}


class Tracer:
    """Records spans and raised exceptions while installed."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent, op, error type or None]
        self.stack = []
        self.op = -1
        self.errors = {layer: 0 for layer in LAYERS}
        self.args = {}      # SIZED name -> [(span id, args, result)]
        self._saved = []

    def _wrap(self, layer, name, fn):
        spans, stack, full = self.spans, self.stack, "%s.%s" % (layer, name)
        keep = self.args.setdefault(full, []) if full in SIZED else None

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [full, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                span[5] = type(exc).__name__
                if not hasattr(exc, "_bench_layer"):  # count where it is raised
                    exc._bench_layer = layer
                    self.errors[layer] += 1
                raise
            else:
                span[2] = perf_counter()
                if keep is not None:
                    keep.append((sid, args, result))
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "goodsgp" or name.startswith("goodsgp.")}
        wrapped = {}
        for layer in LAYERS:
            mod = modules["goodsgp." + layer]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in PER_POINT.get(layer, ())):
                    wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrapped[id(value)][1])

    def uninstall(self):
        for mod, name, value in self._saved:
            setattr(mod, name, value)
        self._saved = []


def layer_metrics(tracer, rung_of):
    """Per-layer metrics from the spans: time busy, self time, sizes, errors.

    rung_of maps an op id to its rung.  A function's time is the summed
    duration of its outermost spans; a layer's self time is its spans'
    durations minus the time covered by their child spans.
    """
    spans = tracer.spans

    def under(sid, ancestor):
        p = spans[sid][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    child = [0.0] * len(spans)
    for name, t0, t1, parent, _op, _err in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    time_of, calls_of, self_of = {}, {}, {layer: 0.0 for layer in LAYERS}
    for sid, (name, t0, t1, _parent, _op, _err) in enumerate(spans):
        calls_of[name] = calls_of.get(name, 0) + 1
        self_of[name.split(".", 1)[0]] += (t1 - t0) - child[sid]
        if not under(sid, name):  # count recursive calls once
            time_of[name] = time_of.get(name, 0.0) + (t1 - t0)

    def t(name):
        return time_of.get(name, 0.0)

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = (self_of[layer], "s")
    m["cli.build_semigroup.s"] = (t("cli.build_semigroup"), "s")

    # semigroup: validation, closure, conductor, violation counts
    vs = "semigroup.validate_small_set"
    by_rung = {r: 0.0 for r in (13, 31, 55, 97)}
    n3 = pairs = 0.0
    violations = {a: 0 for a in ("zero", "meet", "sum", "witness", "conductor")}
    for sid, (small,), report in tracer.args.get(vs, ()):
        dur = spans[sid][2] - spans[sid][1]
        by_rung[rung_of[spans[sid][4]]] += dur
        if small.dim == 3:
            n3 += dur
        pairs += len(small.points) ** 2
        for v in report.violations:
            violations[v.axiom] += 1
    m[vs + ".s"] = (t(vs), "s")
    m[vs + ".calls"] = (calls_of.get(vs, 0), "count")
    m[vs + ".pairs"] = (pairs, "count")
    for r, dur in by_rung.items():
        m["%s.s.c%d" % (vs, r)] = (dur, "s")
    m[vs + ".n3.s"] = (n3, "s")
    m["semigroup.closure_small.s"] = (t("semigroup.closure_small"), "s")
    m["semigroup.closure_small.calls"] = (calls_of.get("semigroup.closure_small", 0), "count")
    m["semigroup.normalize_conductor.s"] = (t("semigroup.normalize_conductor"), "s")
    for axiom, count in violations.items():
        m["semigroup.violations." + axiom] = (count, "count")

    # constructions: the box each construction enumerates, seen as the top
    # it hands to normalize_conductor
    box = 0
    for sid, (small,), _res in tracer.args.get("semigroup.normalize_conductor", ()):
        parent = spans[sid][3]
        if parent >= 0 and spans[parent][0].startswith("constructions."):
            box += math.prod(x + 1 for x in small.top)
    m["constructions.box_points"] = (box, "count")

    # gensys: elimination, knapsack cells
    tested = removed = 0
    for _sid, args, result in tracer.args.get("gensys.minimal_generating_system", ()):
        cands = sum(1 for p in args[0].small.points if any(p))
        tested += cands
        removed += cands - len(result)
    cells = 0
    for _sid, (gens, axis, target), _res in tracer.args.get("gensys.monoid_fiber_reach", ()):
        cells += (target[axis] + 1) * len(gens)
    m["gensys.minimal_generating_system.s"] = (t("gensys.minimal_generating_system"), "s")
    m["gensys.membership_in_closure.calls"] = (
        calls_of.get("gensys.membership_in_closure", 0), "count")
    m["gensys.removed_ratio"] = (removed / tested if tested else 0.0, "ratio")
    m["gensys.dp_cells"] = (cells, "count")
    m["gensys.is_minimal_system.s"] = (t("gensys.is_minimal_system"), "s")
    m["gensys.minimal_ideal_generating_system.s"] = (
        t("gensys.minimal_ideal_generating_system"), "s")

    # ideals and the oracle the canonical ideal calls
    canon_total = t("ideals.canonical_ideal")
    canon_self = redundant = 0.0
    for sid, (name, t0, t1, _p, _op, _err) in enumerate(spans):
        if name == "ideals.canonical_ideal":
            canon_self += (t1 - t0) - child[sid]
        elif name in ("oracle.brute_canonical", "ideals.validate_ideal_small_set") and under(
                sid, "ideals.canonical_ideal"):
            redundant += t1 - t0
    m["ideals.canonical_ideal.s"] = (canon_total, "s")
    m["ideals.canonical_ideal.self_s"] = (canon_self, "s")
    m["ideals.validate_ideal_small_set.s"] = (t("ideals.validate_ideal_small_set"), "s")
    m["ideals.validate_ideal_small_set.calls"] = (
        calls_of.get("ideals.validate_ideal_small_set", 0), "count")
    m["ideals.canonical_redundancy"] = (redundant / canon_total if canon_total else 0.0, "ratio")
    m["oracle.brute_canonical.s"] = (t("oracle.brute_canonical"), "s")
    m["oracle.brute_canonical.calls"] = (calls_of.get("oracle.brute_canonical", 0), "count")
    for fn in ("gi_from_generators", "tail_ideal", "is_stable", "sum_ideals"):
        m["ideals.%s.s" % (fn,)] = (t("ideals." + fn), "s")
    points = 0
    for _sid, (e, f), _res in tracer.args.get("ideals.sum_ideals", ()):
        points += math.prod(x + y + 1 for x, y in zip(e.small.top, f.small.top))
    m["ideals.sum_ideals.points"] = (points, "count")

    # arf: the triple scan's domain and the chain levels backed off
    triples = 0
    for _sid, (s,), _res in tracer.args.get("arf.is_arf", ()):
        pts = s.small.points
        for a in pts:
            k = sum(1 for b in pts if all(x >= y for x, y in zip(b, a)))
            triples += k * (k + 1) // 2
    rejected = sum(1 for sid, sp in enumerate(spans)
                   if sp[0] == "semigroup.good_semigroup" and sp[5] == "NotGoodSemigroup"
                   and under(sid, "arf.arf_closure"))
    m["arf.is_arf.s"] = (t("arf.is_arf"), "s")
    m["arf.triples"] = (triples, "count")
    m["arf.arf_closure.s"] = (t("arf.arf_closure"), "s")
    m["arf.levels_rejected"] = (rejected, "count")

    for layer in LAYERS:
        m[layer + ".errors"] = (tracer.errors[layer], "count")
    return m


def baseline_rows(tracer, doc_of):
    """Per-document medians of the ROADMAP baseline columns, in seconds."""
    cols = {"build": "cli.build_semigroup", "validate": "semigroup.validate_small_set",
            "mingens": "gensys.minimal_generating_system",
            "canonical_ideal": "ideals.canonical_ideal", "is_arf": "arf.is_arf"}
    names = {v: k for k, v in cols.items()}
    samples = {}
    for name, t0, t1, _parent, op, _err in tracer.spans:
        col = names.get(name)
        if col is not None:
            samples.setdefault(doc_of.get(op, ""), {}).setdefault(col, []).append(t1 - t0)
    rows = {}
    for doc, by_col in samples.items():
        rows[doc] = {c: sorted(v)[len(v) // 2] for c, v in by_col.items()}
    return rows
