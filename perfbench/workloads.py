"""The three benchmark workloads and the checks on their outputs.

Each workload runs its operations through a `Log`, which times every
operation and keeps its result together with a check.  The checks run
after the timed phase, so `run_s` never includes them, and an operation
that raises or fails its check is counted as failed without stopping the
run.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
from fractions import Fraction
from functools import lru_cache
from time import perf_counter

from gforest import cli, genfun, oracle, perms, transforms
from gforest.genfun import GFKind

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_TABLE = os.path.join(
    os.path.dirname(HERE), "src", "gforest", "data", "forest_table.txt"
)
KINDS = tuple(GFKind)
FOREST_KINDS = (GFKind.PLABIC_FOREST, GFKind.GRASS_FOREST)
FORMATS = ("text", "csv", "json", "latex-table")

# Full sizes, and the tiny sizes the self-test uses.
SIZES = {
    "full": {
        "gf-bulk": {"order": 16, "rounds": 7},
        "query-mix": {
            "counts": {"coeff": 150, "euler": 45, "lagrange": 45, "relation": 30, "transform": 30},
            "n": (4, 14),
            "relation_orders": (6, 12),
            "coeff_order": None,  # the library default, as a CLI call gets it
        },
        "enumerate": {"count_n": 10, "perm_n": 7, "pool_n": (5, 7), "moves": 1000},
    },
    "tiny": {
        "gf-bulk": {"order": 6, "rounds": 2},
        "query-mix": {
            "counts": {"coeff": 10, "euler": 3, "lagrange": 3, "relation": 2, "transform": 2},
            "n": (4, 6),
            "relation_orders": (6, 6),
            "coeff_order": 6,
        },
        "enumerate": {"count_n": 5, "perm_n": 5, "pool_n": (4, 5), "moves": 20},
    },
}


class Log:
    """Times operations now and checks their results later."""

    def __init__(self, clock=perf_counter):
        self.records = []  # (label, result, error, check)
        self.latency_ms = []
        self.started = []  # perf_counter() at the start of each query
        self.query_keys = []  # what each query asks; repeats share a key
        self.clock = clock

    def op(self, label, thunk, check, query=True, key=None):
        """Run one operation; `check(result)` returns None or a problem.

        Queries given the same `key` ask the same thing again, and their
        latency counts once, as the median of their repeats.
        """
        started = perf_counter()
        t0 = self.clock()
        try:
            result, error = thunk(), None
        except Exception as exc:  # counted as failed; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        if query:
            self.latency_ms.append((self.clock() - t0) * 1000.0)
            self.started.append(started)
            self.query_keys.append(len(self.records) if key is None else key)
        self.records.append((label, result, error, check))
        return result

    def check(self) -> list:
        """Run every check; return [(label, problem)] for the failed ones."""
        failed = []
        for label, result, error, check in self.records:
            problem = error
            if problem is None:
                try:
                    problem = check(result)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failed.append((label, problem))
        return failed


# -- expected data --------------------------------------------------------------

_TERM = re.compile(r"(\d*)(q(?:\^(\d+))?)?")


def parse_qpoly(text: str) -> dict:
    """{r: coefficient} of a q-polynomial in BivarPoly.to_text form."""
    out = {}
    if text == "0":
        return out
    for term in re.findall(r"[+-]?[^+-]+", text):
        sign, body = (-1, term[1:]) if term[0] == "-" else (1, term.lstrip("+"))
        m = _TERM.fullmatch(body)
        if m is None or not body:
            raise ValueError(f"unparseable term {term!r} in {text!r}")
        coeff, qpart, exp = m.groups()
        r = (int(exp) if exp else 1) if qpart else 0
        out[r] = out.get(r, 0) + sign * (int(coeff) if coeff else 1)
    return {r: c for r, c in out.items() if c}


class Expected:
    """Answers kept in expected.txt (written by make_expected.py).

    `corrupt` ("kind:n:k") alters that one row, for the self-test.
    """

    def __init__(self, corrupt=None):
        self.rows, self.pool_sizes = {}, {}
        with open(os.path.join(HERE, "expected.txt"), encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == "series":
                    self.rows[(fields[1], int(fields[2]), int(fields[3]))] = fields[4]
                elif fields[0] == "move-pool":
                    self.pool_sizes[int(fields[1])] = int(fields[2])
        if corrupt is not None:
            kind, n, k = corrupt.split(":")
            key = (kind, int(n), int(k))
            self.rows[key] = self.rows[key] + "+1"

    def row(self, kind: GFKind, n: int, k: int) -> str:
        return self.rows[(kind.value, n, k)]

    def counts(self, kind: GFKind, n: int) -> dict:
        return {
            (k, r): c
            for k in range(n + 1)
            for r, c in parse_qpoly(self.row(kind, n, k)).items()
        }

    def total(self, kind: GFKind, n: int) -> int:
        return sum(self.counts(kind, n).values())


def series_problem(series, kind: GFKind, n_max: int, expected: Expected):
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            got = series[n].y_coefficient(k).to_text()
            if got != expected.row(kind, n, k):
                return f"[x^{n} y^{k}] = {got}, expected {expected.row(kind, n, k)}"
    return None


@lru_cache(maxsize=None)
def reference_rows() -> dict:
    """{n: text} of the checked-in reference table, by n."""
    rows = {}
    with open(REFERENCE_TABLE, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                n = int(line[1 : line.index(",")])
                rows[n] = rows.get(n, "") + line
    return rows


# -- gf-bulk -------------------------------------------------------------------


# A row line of each line-based format: n, k and the q-polynomial.
_ROW_LINE = {
    "text": re.compile(r"\((\d+),(\d+)\) (.+)"),
    "latex-table": re.compile(r"\$\((\d+),(\d+)\)\$ & \$(.+)\$ \\\\"),
}


def rendered_rows(text: str, fmt: str) -> dict:
    """{(n, k): {r: count}} read back from one render_table output."""
    rows = {}
    if fmt == "csv":
        for n, k, r, c in list(csv.reader(io.StringIO(text)))[1:]:
            rows.setdefault((int(n), int(k)), {})[int(r)] = int(c)
    elif fmt == "json":
        for row in json.loads(text):
            rows[(row["n"], row["k"])] = {
                t["dq"]: Fraction(t["num"], t["den"]) for t in row["coefficients"]
            }
    else:
        for line in text.splitlines():
            m = _ROW_LINE[fmt].fullmatch(line)
            if m:
                # LaTeX differs from text only by spaces and braced exponents.
                rows[(int(m[1]), int(m[2]))] = parse_qpoly(re.sub(r"[ {}]", "", m[3]))
    return rows


def gf_bulk(log: Log, size: dict, rng, expected: Expected):
    """All four series to the order, each followed by every table row in
    every CLI format, rendered `rounds` times in an order drawn from rng.

    A render's latency is the median of its rounds, which a stall of the
    host during one of them does not move, so the tail percentiles show
    the slow tables rather than the host's stalls.  The first round's
    output is checked in full and later rounds against it.
    """
    order = size["order"]

    def check_series(series, kind):
        problem = series_problem(series, kind, order, expected)
        if problem is None and kind.is_forest:
            for n in range(1, order + 1):
                lagrange = genfun.forest_gf_via_lagrange(kind, n, order)
                if lagrange != genfun.extract_counts(series, n):
                    return f"Lagrange route disagrees at n = {n}"
        return problem

    def check_render(text, kind, n, fmt):
        ks = range(2, n // 2 + 1)
        if fmt == "text":
            want = "".join(f"({n},{k}) {expected.row(kind, n, k)}\n" for k in ks)
            if text != want:
                return f"rendered {text!r}, expected {want!r}"
            reference = reference_rows()
            if kind is GFKind.GRASS_FOREST and n in reference and text != reference[n]:
                return f"rendered {text!r}, reference table has {reference[n]!r}"
        want = {(n, k): parse_qpoly(expected.row(kind, n, k)) for k in ks}
        got = rendered_rows(text, fmt)
        return None if got == want else f"{fmt} rows {got}, expected {want}"

    for kind in KINDS:
        log.op(
            f"build {kind.value}",
            lambda kind=kind: genfun.series_for(kind, order),
            lambda s, kind=kind: check_series(s, kind),
            query=False,
        )
        tables = [(n, fmt) for n in range(1, order + 1) for fmt in FORMATS]
        first = {}
        for round_ in range(size["rounds"]):
            rng.shuffle(tables)
            for n, fmt in tables:
                if round_ == 0:
                    check = lambda text, kind=kind, n=n, fmt=fmt: check_render(text, kind, n, fmt)
                else:
                    check = lambda text, key=(n, fmt), first=first: (
                        None if text == first.get(key) else "differs from the first round"
                    )
                text = log.op(
                    f"render {kind.value} n={n} {fmt} round {round_ + 1}",
                    lambda kind=kind, n=n, fmt=fmt: cli.render_table(n, n, kind, fmt, order),
                    check,
                    key=(kind, n, fmt),
                )
                if round_ == 0:
                    first[(n, fmt)] = text


# -- query-mix -----------------------------------------------------------------


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _little_schroeder(count):
    s = [1, 1]
    for n in range(2, count):
        s.append((3 * (2 * n - 1) * s[n - 1] - (n - 2) * s[n - 2]) // (n + 1))
    return s[:count]


def _transform(variant, order):
    """(call, closed form of its [x^0..x^order] constant coefficients)."""
    if variant == "speicher-unit":
        return (
            lambda: transforms.speicher_transform({i: 1 for i in range(1, order + 1)}, order),
            [_catalan(i) for i in range(order + 1)],
        )
    if variant == "tree-unit":
        return (
            lambda: transforms.tree_transform({d: 1 for d in range(3, order + 1)}, order),
            [0, 0] + _little_schroeder(order - 1),
        )
    if variant == "tree-alternating":
        return (
            lambda: transforms.tree_transform(transforms.alternating_weight_series(order)),
            [0, 0] + [1] * (order - 1),
        )
    if variant == "forest-alternating":
        # With h1 = 1 the block series is 1 + x + x^2/(1-x) = 1/(1-x).
        return (
            lambda: transforms.forest_transform(transforms.alternating_weight_series(order), 1),
            [_catalan(i) for i in range(order + 1)],
        )
    raise ValueError(variant)


TRANSFORM_VARIANTS = ("speicher-unit", "tree-unit", "tree-alternating", "forest-alternating")


def _balanced(keys, count, rng):
    """`count` draws that use every key equally often (to within one)."""
    keys = list(keys)
    return keys * (count // len(keys)) + rng.sample(keys, count % len(keys))


# The schedule is drawn from this fixed seed, not from --seed (see query_stream).
SCHEDULE_SEED = 0


def query_stream(size: dict, rng) -> list:
    """The query stream for one seed.

    The schedule -- which query type, kind and order comes at each position
    -- is the same for every seed, with every order in range asked for
    equally often.  So every seed asks for the same series in the same
    order, and the cache misses, which set the run time and the tail
    latency, fall on the same queries.  The seed draws what changes no
    series build: which n and k each coefficient query asks for, k of each
    Euler query, and the transform orders.
    """
    fixed = random.Random(SCHEDULE_SEED)
    counts = size["counts"]
    lo, hi = size["n"]
    ns = range(lo, hi + 1)
    r_lo, r_hi = size["relation_orders"]
    lagrange_keys = [(kind, n) for kind in FOREST_KINDS for n in ns]
    relation_keys = [(kind, o) for kind in KINDS for o in range(r_lo, r_hi + 1)]
    schedule = [("coeff", kind) for kind in _balanced(KINDS, counts["coeff"], fixed)]
    schedule += [("euler", n) for n in _balanced(ns, counts["euler"], fixed)]
    schedule += [("lagrange", *key) for key in _balanced(lagrange_keys, counts["lagrange"], fixed)]
    schedule += [("relation", *key) for key in _balanced(relation_keys, counts["relation"], fixed)]
    variants = _balanced(TRANSFORM_VARIANTS, counts["transform"], fixed)
    schedule += [("transform", variant) for variant in variants]
    fixed.shuffle(schedule)

    coeff_ns = _balanced(ns, counts["coeff"], rng)
    rng.shuffle(coeff_ns)
    queries = []
    for slot in schedule:
        if slot[0] == "coeff":
            n = coeff_ns.pop()
            queries.append(("coeff", slot[1], n, rng.randint(0, n)))
        elif slot[0] == "euler":
            queries.append(("euler", slot[1], rng.randint(2, slot[1] - 2)))
        elif slot[0] == "transform":
            queries.append(("transform", slot[1], rng.randint(lo, hi)))
        else:
            queries.append(slot)
    return queries


def query_mix(log: Log, size: dict, rng, expected: Expected):
    """A closed loop with one client: each query is sent when the last returns."""
    for q in query_stream(size, rng):
        label = " ".join(getattr(a, "value", str(a)) for a in q)
        if q[0] == "coeff":
            _, kind, n, k = q
            log.op(
                label,
                lambda: genfun.coefficient_poly(kind, n, k, size["coeff_order"]),
                lambda poly, q=q: None
                if poly.to_text() == expected.row(*q[1:])
                else f"got {poly.to_text()}",
            )
        elif q[0] == "euler":
            _, n, k = q
            log.op(
                label,
                lambda: genfun.euler_characteristic(GFKind.GRASS_FOREST, n, k),
                lambda v: None if v == 1 else f"got {v}, expected 1",
            )
        elif q[0] == "lagrange":
            _, kind, n = q
            log.op(
                label,
                lambda: genfun.forest_gf_via_lagrange(kind, n),
                lambda got, q=q: None
                if got == expected.counts(*q[1:])
                else "counts differ from expected",
            )
        elif q[0] == "relation":
            _, kind, order = q
            log.op(
                label,
                lambda: genfun.verify_algebraic_relation(kind, order),
                lambda res: None if res[0] is True else res[1],
            )
        else:
            _, variant, order = q
            call, want = _transform(variant, order)

            def check(series, want=want):
                got = [
                    c.constant_coefficient() if c.is_constant() else c.to_text()
                    for c in series.coefficients()
                ]
                return None if got == want else f"got {got}, expected {want}"

            log.op(label, call, check)


# -- enumerate -----------------------------------------------------------------


def enumerate_objects(log: Log, size: dict, rng, expected: Expected):
    """Brute force: oracle counts, permutation closures, trips and moves."""
    count_n, perm_n, moves = size["count_n"], size["perm_n"], size["moves"]

    for kind in KINDS:
        series = log.op(
            f"series {kind.value}",
            lambda kind=kind: genfun.series_for(kind, count_n),
            lambda s, kind=kind: series_problem(s, kind, count_n, expected),
        )
        for n in range(1, count_n + 1):
            log.op(
                f"count {kind.value} n={n}",
                lambda kind=kind, n=n: oracle.count_by_statistics(n, kind),
                lambda hist, n=n, series=series: None
                if hist == genfun.extract_counts(series, n)
                else "oracle disagrees with the series",
            )

    trips = []  # (forest, trip permutation), filled by the trip operations

    def check_closure(sets, kind, single_component):
        sizes = {n: len(sets[n]) for n in range(1, perm_n + 1)}
        want = {n: expected.total(kind, n) for n in range(1, perm_n + 1)}
        if sizes != want:
            return f"closure sizes {sizes}, expected {want}"
        got = {w for G, w in trips if not single_component or len(G) == 1}
        if got != sets[perm_n]:
            return f"{len(got)} trip permutations against closure of {len(sets[perm_n])}"
        return None

    log.op(
        f"tree closure n<={perm_n}",
        lambda: perms.grass_tree_permutation_sets(perm_n),
        lambda sets: check_closure(sets, GFKind.GRASS_TREE, True),
    )
    forest_sets = log.op(
        f"forest closure n<={perm_n}",
        lambda: perms.grass_forest_permutation_sets(perm_n),
        lambda sets: check_closure(sets, GFKind.GRASS_FOREST, False),
    )
    forests = log.op(
        f"contracted forests n={perm_n}",
        lambda: [
            G
            for F in oracle.enumerate_forests(perm_n)
            for G in oracle.decorate_grassmannian(F, contracted_only=True)
        ],
        lambda Gs: None
        if len(Gs) == expected.total(GFKind.GRASS_FOREST, perm_n)
        else f"{len(Gs)} contracted forests",
    )

    def check_trip(w, G):
        if perms.antiexcedances(w) != oracle.helicity(G):
            return "antiexcedances differ from helicity"
        if forest_sets is None or w not in forest_sets[perm_n]:
            return "trip permutation outside the closure"
        return None

    for G in forests or ():
        w = log.op("trip", lambda G=G: perms.trip_permutation(G), lambda w, G=G: check_trip(w, G))
        trips.append((G, w))

    lo, hi = size["pool_n"]
    pool = log.op(
        f"move pool n={lo}..{hi}",
        lambda: [
            G
            for n in range(lo, hi + 1)
            for F in oracle.enumerate_forests(n)
            for G in oracle.decorate_grassmannian(F, contracted_only=False)
            if oracle.contractible_edges(G)
        ],
        lambda p: None
        if len(p) == sum(expected.pool_sizes[n] for n in range(lo, hi + 1))
        else f"{len(p)} forests in the pool",
    )

    def check_move(H, G):
        if oracle.helicity(H) != oracle.helicity(G):
            return "helicity changed"
        if oracle.mom_dimension(H) != oracle.mom_dimension(G):
            return "dimension changed"
        if perms.trip_permutation(H) != perms.trip_permutation(G):
            return "trip permutation changed"
        return None

    for _ in range(moves if pool else 0):
        G = rng.choice(pool)
        log.op(
            "move",
            lambda G=G: oracle.contract_move(G, rng.choice(oracle.contractible_edges(G))),
            lambda H, G=G: check_move(H, G),
        )


WORKLOADS = {"gf-bulk": gf_bulk, "query-mix": query_mix, "enumerate": enumerate_objects}
