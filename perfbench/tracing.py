"""Layer tracing installed from outside the program.

`Tracer.install` replaces the public entry points of each gforest layer
with wrappers that record what the layer did, without any change under
src/.  Three kinds of wrapper:

* spans: (name, start, end, parent, leaf seconds) for each call of a
  layer function -- genfun builds, series operations, transforms, oracle
  counts, closures, table rendering.  A span's self time is its duration
  minus its child spans and the leaf time spent directly under it.
* leaves: high-frequency calls (ring products, trip permutations,
  contraction moves, closure candidates) aggregated as count and time,
  and charged to the enclosing span.
* generators: `enumerate_forests` and `decorate_grassmannian` are timed
  per `next()`, since a call only creates the generator.

Everything is kept in memory; `dump` writes it out once, at exit.  The
wrappers pass straight through while `on` is false, so output checks run
untraced.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); functions looked up as module globals at
# call time, so patching the module attribute reaches internal callers too.
SPANS = (
    ("genfun", "build_C", "genfun.build_C"),
    ("genfun", "build_tree_gf", "genfun.tree_gf"),
    ("genfun", "build_forest_gf", "genfun.forest_gf"),
    ("genfun", "forest_gf_via_lagrange", "genfun.lagrange"),
    ("genfun", "verify_algebraic_relation", "genfun.relation"),
    ("genfun", "coefficient_poly", "genfun.coeff"),
    ("transforms", "speicher_transform", "transforms.speicher"),
    ("transforms", "tree_transform", "transforms.tree"),
    ("transforms", "forest_transform", "transforms.forest"),
    ("oracle", "count_by_statistics", "oracle.count"),
    ("perms", "grass_tree_permutation_sets", "perms.tree_closure"),
    ("perms", "grass_forest_permutation_sets", "perms.forest_closure"),
    ("cli", "render_table", "cli.render"),
)
SERIES_METHODS = (
    ("__mul__", "series.mul"),
    ("__rmul__", "series.mul"),
    ("__truediv__", "series.div"),
    ("compose", "series.compose"),
    ("reversion", "series.reversion"),
)
LEAVES = (
    ("perms", "trip_permutation", "perms.trip"),
    ("oracle", "contract_move", "oracle.contract_move"),
    # Closure candidates: every permutation the closures build before the
    # membership test.  The closures call these as module globals.
    ("perms", "amalgamation", "perms.candidate"),
    ("perms", "direct_sum", "perms.candidate"),
    ("perms", "cyclic_rotation", "perms.candidate"),
)
GENERATORS = (
    ("oracle", "enumerate_forests", "oracle.enumerate"),
    ("oracle", "decorate_grassmannian", "oracle.decorate"),
)
CACHED = ("build_C", "build_tree_gf", "build_forest_gf", "_tree_power")


def _coeff_bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.on = False
        self.spans = []  # [name, start, end, parent index, leaf seconds]
        self.stack = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts = Counter()
        self.gen_depth = 0
        self.caches = {}
        self.cache_infos = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _charge(self, name, dt):
        agg = self.leaves[name]
        agg[0] += 1
        agg[1] += dt
        if self.stack:
            self.spans[self.stack[-1]][4] += dt

    def _leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self._charge(name, perf_counter() - t0)
            return out

        return wrapper

    def _ring_mul(self, fn, poly_type):
        counts = self.counts

        def wrapper(a, b):
            if not self.on:
                return fn(a, b)
            t0 = perf_counter()
            out = fn(a, b)
            self._charge("ring.mul", perf_counter() - t0)
            counts["ring.mul_term_pairs"] += len(a) * (len(b) if type(b) is poly_type else 1)
            if type(out) is poly_type and out:
                bits = _coeff_bits(max(out._t.values(), key=abs))
                if bits > counts["ring.max_coeff_bits"]:
                    counts["ring.max_coeff_bits"] = bits
            return out

        return wrapper

    def _generator(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            return self._timed_next(name, fn(*args, **kwargs))

        return wrapper

    def _timed_next(self, name, it):
        # Only the outermost timed generator is charged, so a generator
        # driving another is not counted twice.
        while True:
            outer = self.gen_depth == 0
            self.gen_depth += 1
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                if outer:
                    self._charge("oracle.enumerate", perf_counter() - t0)
                return
            finally:
                self.gen_depth -= 1
            if outer:
                self._charge("oracle.enumerate", perf_counter() - t0)
            self.counts[name + "_items"] += 1
            yield item

    def stop(self):
        """Stop recording, and read the genfun cache counters as they stand."""
        self.on = False
        self.cache_infos = [fn.cache_info() for fn in self.caches.values()]

    def install(self, gforest_modules: dict):
        """Patch the given modules ({'genfun': module, ...}) in place."""
        mods = gforest_modules
        self.caches = {name: getattr(mods["genfun"], name) for name in CACHED}
        c = self.counts

        def closure_size(sets):
            c["perms.closure_size"] += sum(map(len, sets.values()))

        on_result = {
            "oracle.count": lambda hist: c.update({"oracle.objects_counted": sum(hist.values())}),
            "perms.tree_closure": closure_size,
            "perms.forest_closure": closure_size,
            "cli.render": lambda text: c.update({"cli.bytes_out": len(text.encode())}),
        }
        for mod, attr, name in SPANS:
            wrapped = self._span(name, getattr(mods[mod], attr), on_result.get(name))
            setattr(mods[mod], attr, wrapped)
        series_cls = mods["series"].TruncSeries
        for attr, name in SERIES_METHODS:
            setattr(series_cls, attr, self._span(name, getattr(series_cls, attr)))
        poly = mods["ring"].BivarPoly
        # __rmul__ is a separate class attribute (an alias of __mul__), so
        # int * poly would go uncounted if only __mul__ were wrapped.
        for attr in ("__mul__", "__rmul__"):
            setattr(poly, attr, self._ring_mul(getattr(poly, attr), poly))
        for mod, attr, name in LEAVES:
            setattr(mods[mod], attr, self._leaf(name, getattr(mods[mod], attr)))
        for mod, attr, name in GENERATORS:
            setattr(mods[mod], attr, self._generator(name, getattr(mods[mod], attr)))

    # -- derived metrics -------------------------------------------------------

    def _self_times(self):
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, leaf in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [
            (t1 - t0) - child[i] - leaf
            for i, (name, t0, t1, parent, leaf) in enumerate(self.spans)
        ]

    def _outermost(self, names):
        """(calls, inclusive seconds) of spans in `names` with no ancestor in `names`."""
        calls, total = 0, 0.0
        for name, t0, t1, parent, _ in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                calls += 1
                total += t1 - t0
        return calls, total

    def metrics(self) -> dict:
        """Per-layer metrics as {name: value}; units are in BENCHMARK.json."""
        selfs = self._self_times()
        self_s, calls = Counter(), Counter()
        for rec, s in zip(self.spans, selfs):
            self_s[rec[0]] += s
            calls[rec[0]] += 1
        leaf = self.leaves
        c = self.counts
        out = {
            "ring.mul_calls": leaf["ring.mul"][0],
            "ring.mul_term_pairs": c["ring.mul_term_pairs"],
            "ring.mul_s": leaf["ring.mul"][1],
            "ring.max_coeff_bits": c["ring.max_coeff_bits"],
        }
        for op in ("mul", "div", "compose", "reversion"):
            out[f"series.{op}_calls"] = calls[f"series.{op}"]
            out[f"series.{op}_s"] = self_s[f"series.{op}"]
        for name in ("build_C", "tree_gf", "forest_gf", "lagrange", "relation", "coeff"):
            out[f"genfun.{name}_s"] = self._outermost({f"genfun.{name}"})[1]
        infos = self.cache_infos
        hits = sum(i.hits for i in infos)
        misses = sum(i.misses for i in infos)
        out["genfun.cache_hits"] = hits
        out["genfun.cache_misses"] = misses
        out["genfun.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["genfun.cached_series"] = sum(i.currsize for i in infos)
        n, s = self._outermost({"transforms.speicher", "transforms.tree", "transforms.forest"})
        out["transforms.calls"] = n
        out["transforms.s"] = s
        n, s = self._outermost({"oracle.count"})
        out["oracle.count_calls"] = n
        out["oracle.count_s"] = s
        out["oracle.objects_counted"] = c["oracle.objects_counted"]
        out["oracle.enumerate_s"] = leaf["oracle.enumerate"][1]
        out["oracle.decorated_forests"] = c["oracle.decorate_items"]
        out["oracle.contract_moves"] = leaf["oracle.contract_move"][0]
        out["perms.tree_closure_s"] = self._outermost({"perms.tree_closure"})[1]
        out["perms.forest_closure_s"] = self._outermost({"perms.forest_closure"})[1]
        candidates = leaf["perms.candidate"][0]
        out["perms.closure_candidates"] = candidates
        out["perms.closure_size"] = c["perms.closure_size"]
        out["perms.closure_yield"] = c["perms.closure_size"] / candidates if candidates else 0.0
        out["perms.trip_calls"] = leaf["perms.trip"][0]
        out["perms.trip_s"] = leaf["perms.trip"][1]
        out["cli.render_s"] = self_s["cli.render"]
        out["cli.bytes_out"] = c["cli.bytes_out"]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "leaf_s"],
                    "spans": self.spans,
                    "leaves": {k: {"calls": v[0], "s": v[1]} for k, v in self.leaves.items()},
                    "counts": dict(self.counts),
                },
                fh,
            )
